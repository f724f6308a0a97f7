package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/disperse"
	"repro/internal/sdds"
)

// perLayer declares the metrics of a traced run. Times are medians of a
// layer's self time per call over the whole traced run (preload, timed
// phase, probe and check alike — a call costs what it costs), so that each
// is measured on every workload. Rates per op count the timed phase only.
// The WAL's time is given as a share because on three workloads it is,
// correctly, exactly zero.
var perLayer = []metricDecl{
	{Name: "core.build_index_us", Unit: "us", Better: "lower"},
	{Name: "core.build_query_us", Unit: "us", Better: "lower"},
	{Name: "chunk.split_us", Unit: "us", Better: "lower"},
	{Name: "cipherx.prp_us", Unit: "us", Better: "lower"},
	{Name: "disperse.us", Unit: "us", Better: "lower"},
	{Name: "core.residual_us", Unit: "us", Better: "lower"},
	{Name: "cipherx.seal_us", Unit: "us", Better: "lower"},
	{Name: "sdds.client.insert_self_us", Unit: "us", Better: "lower"},
	{Name: "sdds.client.search_self_us", Unit: "us", Better: "lower"},
	{Name: "sdds.client.rpcs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "sdds.client.iams", Unit: "count", Better: "lower"},
	{Name: "sdds.client.splits", Unit: "count", Better: "lower"},
	{Name: "sdds.client.split_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.wire_us.put_batch", Unit: "us", Better: "lower"},
	{Name: "transport.wire_us.search", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_out_per_op", Unit: "B/op", Better: "lower"},
	{Name: "transport.bytes_in_per_op", Unit: "B/op", Better: "lower"},
	{Name: "sdds.node.handler_us.put", Unit: "us", Better: "lower"},
	{Name: "sdds.node.handler_us.put_batch", Unit: "us", Better: "lower"},
	{Name: "sdds.node.handler_us.search", Unit: "us", Better: "lower"},
	{Name: "sdds.node.handler_us.get", Unit: "us", Better: "lower"},
	{Name: "sdds.node.entries_per_put_batch", Unit: "1/rpc", Better: "lower"},
	{Name: "sdds.node.hits_per_search", Unit: "1/rpc", Better: "lower"},
	{Name: "wal.journal_share", Unit: "%", Better: "lower"},
	{Name: "wal.fsyncs_per_insert", Unit: "1/op", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "sdds.stored_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "trace.overhead", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed", Unit: "%", Better: "lower"},
}

// replayCap bounds the stand-alone replay of the client transform.
const replayCap = 20000

// runTraced measures one workload layer by layer at one worker: a warm-up,
// an untraced reference pass through the public API, then the same streams
// through the hand-assembled traced stack.
func runTraced(o options, base spec, dirs *workDirs) (*report, error) {
	s := base.sized(o.seconds*traceShare, o.scale)
	rep := &report{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: true,
		Workers: 1, Preload: s.preload, Ops: s.ops,
		Info: make(map[string]float64),
	}

	var ref *phase
	for _, warm := range []bool{true, false} {
		in, st, _, _, err := setUp(s, o.seed, 1, dirs, openStack)
		if err != nil {
			return nil, err
		}
		if warm {
			runPhase(st.store, in, in.timed, warmupEach)
		} else {
			ref = runPhase(st.store, in, in.timed, 0)
		}
		if err := st.close(); err != nil {
			return nil, err
		}
	}
	if ref.errs > 0 {
		return nil, fmt.Errorf("untraced reference pass: %d ops failed, first: %w", ref.errs, ref.firstErr)
	}

	t := newTracer((s.preload + s.ops) * 16)
	fs := newTracedFS()
	t.phase = phasePreload
	in, st, _, _, err := setUp(s, o.seed, 1, dirs, openTracedStack(t, fs))
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }() //nolint:errcheck // end of run
	rep.StreamHash = fmt.Sprintf("%016x", in.streamHash())
	ts := st.store.(*tracedStore)

	t.phase = phaseTimed
	timed := runPhase(st.store, in, in.timed, 0)
	t.phase = phaseProbe
	probe := runPhase(st.store, in, in.probe, 0)
	// Counters are read before the restart check: the reopened cluster
	// starts its own.
	recSplits, recIAMs := ts.cluster.Stats(sdds.FileRecords)
	idxSplits, idxIAMs := ts.cluster.Stats(sdds.FileIndex)
	syncs, written := fs.totals()
	stored := ts.stored
	t.phase = phaseCheck
	check, err := audit(st, in, 1, s, true, rep)
	if err != nil {
		return nil, err
	}
	rep.tally(check, timed, probe)
	res := &rep.Result

	a := analyze(t.spans)
	if o.spans != "" {
		if err := a.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	rep.Stages = a.stageTables(true)
	whole := a.stageTables(false)

	m := make(map[string]float64)
	row := func(class opKind, layer string) stageRow {
		for _, tb := range whole {
			if tb.Class == kindNames[class] {
				for _, r := range tb.Rows {
					if r.Layer == layer {
						return r
					}
				}
			}
		}
		return stageRow{}
	}
	m["core.build_index_us"] = row(opInsert, "core.build_index").P50Us
	m["core.build_query_us"] = row(opSearch, "core.build_query").P50Us
	m["cipherx.seal_us"] = row(opInsert, "cipherx.seal").P50Us
	m["sdds.client.insert_self_us"] = a.perOpP50(opInsert, spanCluster)
	m["sdds.client.search_self_us"] = a.perOpP50(opSearch, spanCluster)

	inserted, userBytes := in.inserted()
	split, prp, disp, err := replayTransform(in, replayCap)
	if err != nil {
		return nil, err
	}
	m["chunk.split_us"], m["cipherx.prp_us"], m["disperse.us"] = split, prp, disp
	m["core.residual_us"] = m["core.build_index_us"] - split - prp - disp

	var sends, bytesOut, bytesIn int
	var stall int64
	var walBlocking, insertE2E int64
	selfBy := make(map[string][]int64) // send and handler self times by layer
	var batches, entries, searches, hits, checkpoints int
	for i := range a.spans {
		sp := &a.spans[i]
		r := a.root(int32(i))
		switch sp.kind {
		case spanOp:
			if sp.class == opInsert {
				insertE2E += sp.end - sp.start
			}
		case spanSend:
			if r >= 0 && a.spans[r].phase == phaseTimed {
				sends++
				bytesOut += int(sp.out)
				bytesIn += int(sp.in)
			}
			if strings.HasPrefix(sdds.OpName(sp.opcode), "migrate_") {
				stall += sp.end - sp.start
			}
			selfBy[sp.layer()] = append(selfBy[sp.layer()], a.self[i])
		case spanHandler:
			selfBy[sp.layer()] = append(selfBy[sp.layer()], a.self[i])
			switch sdds.OpName(sp.opcode) {
			case "put_batch":
				batches++
				entries += int(sp.out)
			case "search":
				searches++
				hits += int(sp.in)
			}
		case spanJournal:
			walBlocking += a.blocking[i]
		case spanCheckpoint:
			walBlocking += a.blocking[i]
			checkpoints++
		}
	}
	timedOps := float64(timed.done + timed.errs)
	m["sdds.client.rpcs_per_op"] = float64(sends) / timedOps
	m["transport.bytes_out_per_op"] = float64(bytesOut) / timedOps
	m["transport.bytes_in_per_op"] = float64(bytesIn) / timedOps
	m["sdds.client.iams"] = float64(recIAMs + idxIAMs)
	m["sdds.client.splits"] = float64(recSplits + idxSplits)
	m["sdds.client.split_stall_ms"] = float64(stall) / 1e6
	for _, opc := range []string{"put_batch", "search"} {
		m["transport.wire_us."+opc] = p50us(selfBy["transport.wire."+opc])
	}
	for _, opc := range []string{"put", "put_batch", "search", "get"} {
		m["sdds.node.handler_us."+opc] = p50us(selfBy["sdds.node.handler."+opc])
	}
	m["sdds.node.entries_per_put_batch"] = float64(entries) / float64(batches)
	m["sdds.node.hits_per_search"] = float64(hits) / float64(searches)
	m["wal.journal_share"] = 100 * float64(walBlocking) / float64(insertE2E)
	m["wal.fsyncs_per_insert"] = float64(syncs) / float64(inserted)
	m["wal.bytes_per_user_byte"] = float64(written) / float64(userBytes)
	m["wal.checkpoints"] = float64(checkpoints)
	m["sdds.stored_bytes_per_user_byte"] = float64(stored) / float64(userBytes)
	m["trace.overhead"] = 100 * (1 - timed.opsPerSec()/ref.opsPerSec())
	for _, tb := range whole {
		if u := 100 * tb.Unattributed; u > m["trace.unattributed"] {
			m["trace.unattributed"] = u
		}
	}

	res.Metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{m[d.Name], d.Unit}
	}
	rep.Info["ops_per_s_untraced_1worker"] = ref.opsPerSec()
	rep.Info["ops_per_s_traced_1worker"] = timed.opsPerSec()
	rep.Info["spans"] = float64(len(a.spans))
	fmt.Fprintf(o.log, "workload %s seed %d (traced, 1 worker): preload %d, ops %d, stream %s\n",
		rep.Workload, rep.Seed, rep.Preload, rep.Ops, rep.StreamHash)
	printStageTables(o.log, rep.Stages)
	fmt.Fprintln(o.log)
	printReport(o.log, rep, perLayer)
	return rep, nil
}

// inserted counts the records the preload and timed streams insert, and
// their plaintext bytes.
func (in *inputs) inserted() (records int, userBytes int64) {
	for _, streams := range [][][]op{in.preload, in.timed} {
		for _, ops := range streams {
			for _, o := range ops {
				if o.kind == opInsert {
					records++
					userBytes += int64(len(in.content[o.arg]))
				}
			}
		}
	}
	return records, userBytes
}

// perOpP50 sums, per op of the class, the self time of its spans of the
// kind, and returns the median over ops in microseconds.
func (a *analysis) perOpP50(class opKind, kind spanKind) float64 {
	sum := make(map[int32]int64)
	for i := range a.spans {
		if a.spans[i].kind != kind {
			continue
		}
		if r := a.root(int32(i)); r >= 0 && a.spans[r].class == class {
			sum[r] += a.self[i]
		}
	}
	v := make([]int64, 0, len(sum))
	for _, ns := range sum {
		v = append(v, ns)
	}
	return p50us(v)
}

var replaySink uint64 // keeps the replayed calls from being optimized away

// replayTransform runs the run's inserted records through the three public
// functions Pipeline.BuildIndex is made of — chunk.SplitAll,
// cipherx.BitPRP.EncryptBits, disperse.DisperseInto — timing each per
// record, and returns the medians in microseconds. What BuildIndex costs
// beyond their sum (packing, allocation, stream assembly) is core's own.
func replayTransform(in *inputs, limit int) (splitUs, prpUs, disperseUs float64, err error) {
	p := indexParams()
	bits := uint(8 * p.Chunk.S)
	prp, err := cipherx.NewBitPRP(cipherx.DeriveKey(p.Key, "index-ecb"), bits)
	if err != nil {
		return 0, 0, 0, err
	}
	disp, err := disperse.New(disperse.Params{
		K: p.DisperseK, G: bits / uint(p.DisperseK), Kind: p.MatrixKind,
		Key: cipherx.DeriveKey(p.Key, "index-dispersal"),
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var split, enc, dis []int64
	var vals []uint64
	pieces := make([]disperse.Piece, p.DisperseK)
	for _, streams := range [][][]op{in.preload, in.timed} {
		for _, ops := range streams {
			for _, o := range ops {
				if o.kind != opInsert || len(split) >= limit {
					continue
				}
				t0 := time.Now()
				chunkings := chunk.SplitAll(in.content[o.arg], p.Chunk)
				t1 := time.Now()
				vals = vals[:0]
				for _, ck := range chunkings {
					for _, c := range ck.Chunks {
						var v uint64
						for _, sym := range c {
							v = v<<8 | uint64(sym)
						}
						vals = append(vals, v)
					}
				}
				t2 := time.Now()
				for i, v := range vals {
					vals[i] = prp.EncryptBits(v)
				}
				t3 := time.Now()
				for _, v := range vals {
					disp.DisperseInto(pieces, v)
					replaySink += uint64(pieces[0])
				}
				t4 := time.Now()
				split = append(split, t1.Sub(t0).Nanoseconds())
				enc = append(enc, t3.Sub(t2).Nanoseconds())
				dis = append(dis, t4.Sub(t3).Nanoseconds())
			}
		}
	}
	return p50us(split), p50us(enc), p50us(dis), nil
}
