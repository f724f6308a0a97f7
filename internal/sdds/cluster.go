package sdds

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lhstar"
	"repro/internal/transport"
)

// Cluster is the data-path client of the SDDS: it keeps an image of
// each file (deliberately allowed to lag, exercising forwarding and
// IAMs) and runs the key operations, write rounds and searches over a
// Transport. It holds no authority over any file: state, record count
// and growth belong to its Coordinator, which runs each op inside its
// bracket (do) and tells it when a merge committed (File).
type Cluster struct {
	tr    transport.Transport
	place *Placement
	coord *Coordinator

	mu    sync.Mutex
	files map[FileID]*clientFile

	met clusterMetrics // set by Instrument before traffic; nil-safe
}

// clientFile is the client's view of one file.
type clientFile struct {
	image  lhstar.Image // lags behind the coordinator's state on purpose
	iams   int
	merges int // the coordinator's merge count when the image was taken
}

// NewCluster builds a cluster client, and the coordinator it reports to,
// over the transport and placement.
func NewCluster(tr transport.Transport, place *Placement) *Cluster {
	return &Cluster{
		tr:    tr,
		place: place,
		coord: newCoordinator(tr, place),
		files: make(map[FileID]*clientFile),
	}
}

// Coordinator returns the coordinator this client reports to.
func (c *Cluster) Coordinator() *Coordinator { return c.coord }

// AttachMigrationLog installs a durable migration log on the
// coordinator (Coordinator.AttachMigrationLog).
func (c *Cluster) AttachMigrationLog(lg MigrationLog) (inFlight int, err error) {
	return c.coord.AttachMigrationLog(lg)
}

// SetMaxLoad adjusts a file's split threshold on the coordinator.
func (c *Cluster) SetMaxLoad(id FileID, maxLoad int) { c.coord.SetMaxLoad(id, maxLoad) }

// Transport returns the underlying transport.
func (c *Cluster) Transport() transport.Transport { return c.tr }

// Placement returns the bucket placement.
func (c *Cluster) Placement() *Placement { return c.place }

// file returns the client's view of a file. A new view, or one that
// predates a merge the coordinator committed since, takes the
// coordinator's image: a shrunken file can otherwise leave the image
// pointing at buckets that no longer exist (LH* shrinking requires
// coordinator assistance for exactly this reason). A split leaves the
// image lagging. Callers hold c.mu.
func (c *Cluster) file(id FileID) *clientFile {
	cf := c.coord.File(id)
	f := c.files[id]
	if f == nil {
		f = &clientFile{merges: -1}
		c.files[id] = f
	}
	if f.merges != cf.Merges {
		f.image, f.merges = cf.State.Image(), cf.Merges
	}
	return f
}

// Image returns the current client image of a file.
func (c *Cluster) Image(id FileID) lhstar.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file(id).image
}

// Stats returns cumulative split and IAM counters for a file.
func (c *Cluster) Stats(id FileID) (splits, iams int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord.File(id).Splits, c.file(id).iams
}

// Put stores a key/value pair in a file, splitting the file if it
// overflows.
func (c *Cluster) Put(ctx context.Context, id FileID, key uint64, value []byte) error {
	c.met.puts.Inc()
	_, err := c.writeOne(ctx, id, false, key, value)
	return err
}

// Get retrieves a value by key: one get to the node the client image
// addresses, whose IAM is folded back into the image.
func (c *Cluster) Get(ctx context.Context, id FileID, key uint64) ([]byte, bool, error) {
	c.met.gets.Inc()
	var resp keyResp
	err := c.coord.do(ctx, nil, func() error {
		c.mu.Lock()
		f := c.file(id)
		addr := f.image.Address(key)
		c.mu.Unlock()

		w := getWriter()
		keyHeader{file: id, addr: addr, key: key}.encodeTo(w)
		raw, err := c.tr.Send(ctx, c.place.NodeOf(addr), opGet, w.b)
		putWriter(w)
		if err != nil {
			return err
		}
		if resp, err = decode[keyResp](raw); err != nil {
			return err
		}
		if resp.iamAddr != addr {
			c.mu.Lock()
			f.image.Adjust(resp.iamAddr, uint(resp.iamLevel))
			f.iams++
			c.mu.Unlock()
			c.met.iams.Inc()
		}
		return nil
	})
	if err != nil || !resp.existed {
		return nil, false, err
	}
	return resp.value, true, nil
}

// Delete removes a key, reporting whether it existed.
func (c *Cluster) Delete(ctx context.Context, id FileID, key uint64) (bool, error) {
	c.met.deletes.Inc()
	delta, err := c.writeOne(ctx, id, true, key, nil)
	return delta < 0, err
}

// writeOne puts value under key, or with del deletes key, in the
// coordinator's bracket: a put_batch of one entry to the node the client
// image addresses, its answer folded as a write round's. A single key
// needs none of a round's routing or fan-out. It returns the record-count
// change the answer reports.
func (c *Cluster) writeOne(ctx context.Context, id FileID, del bool, key uint64, value []byte) (int, error) {
	files := [1]writeFile{{id: id, del: del}}
	w := &files[0]
	err := c.coord.do(ctx, files[:], func() error {
		c.mu.Lock()
		w.f = c.file(id)
		addr := w.f.image.Address(key)
		c.mu.Unlock()

		bw := batchWriter{w: getWriter()}
		defer putWriter(bw.w)
		bw.entry(0, id, del, 0, addr, key).raw(value) // a delete's value is nil
		raw, err := c.tr.Send(ctx, c.place.NodeOf(addr), opPutBatch, bw.finish())
		if err != nil {
			return err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		return bw.readAnswer(raw, func(_ int, pr keyResp) { c.absorb(w, pr) })
	})
	return w.delta, err
}

// NodeFailure is one node's error in a batched operation.
type NodeFailure struct {
	Node transport.NodeID
	Err  error
}

// BatchError reports the nodes whose part of a batched operation
// failed; the remaining nodes' parts were applied. Re-running the whole
// write completes it: the puts are idempotent, and deleting a key
// already gone is a no-op.
type BatchError struct {
	Failures []NodeFailure
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("sdds: batch failed on nodes %v: %v", failedNodes(e.Failures), e.Failures[0].Err)
}

// Unwrap exposes the per-node errors to errors.Is/As.
func (e *BatchError) Unwrap() []error { return failureErrs(e.Failures) }

// IncompleteError reports a search that some nodes did not answer. RIDs
// holds what the answering nodes matched: a subset of the full answer,
// never a superset, since a match needs hits and a silent node adds none.
type IncompleteError struct {
	RIDs   []uint64
	Failed []NodeFailure
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("sdds: search incomplete, nodes %v did not answer: %v", failedNodes(e.Failed), e.Failed[0].Err)
}

// Unwrap exposes the per-node errors to errors.Is/As.
func (e *IncompleteError) Unwrap() []error { return failureErrs(e.Failed) }

func failedNodes(fs []NodeFailure) []transport.NodeID {
	out := make([]transport.NodeID, len(fs))
	for i, f := range fs {
		out[i] = f.Node
	}
	return out
}

func failureErrs(fs []NodeFailure) []error {
	out := make([]error, len(fs))
	for i, f := range fs {
		out[i] = f.Err
	}
	return out
}

// writeFile is one file's puts, or deletes, in a write op; the
// coordinator's bracket reads its id, del and delta.
type writeFile struct {
	id    FileID
	del   bool
	f     *clientFile
	delta int // the record-count change the nodes' answers report
}

// absorb folds one entry's answer into its file: a moved entry's IAM
// adjusts the client image, and a put that created its key or a delete
// that found it changes the record count by one. Callers hold c.mu.
func (c *Cluster) absorb(w *writeFile, pr keyResp) {
	if pr.moved {
		w.f.image.Adjust(pr.iamAddr, uint(pr.iamLevel))
		w.f.iams++
		c.met.iams.Inc()
	}
	switch {
	case w.del && pr.existed:
		w.delta--
	case !w.del && !pr.existed:
		w.delta++
	}
}

// nodeBatch is the put_batch a write round sends to one node; its groups
// are tagged with their file's index in the round's files.
type nodeBatch struct {
	node transport.NodeID
	bw   batchWriter
}

// writeRound routes a write's entries, each from its file's client
// image, into one put_batch per destination node. It runs under c.mu.
type writeRound struct {
	c     *Cluster
	files []writeFile
	nodes []nodeBatch
}

// add routes key of files[fi] and returns the writer a put's value is
// encoded into.
func (r *writeRound) add(fi int, key uint64) *writer {
	w := &r.files[fi]
	addr := w.f.image.Address(key)
	node := r.c.place.NodeOf(addr)
	// A write lands on at most a handful of nodes: a linear scan of a
	// value slice beats a map's hash and allocation on this hot path.
	bi := slices.IndexFunc(r.nodes, func(b nodeBatch) bool { return b.node == node })
	if bi < 0 {
		r.nodes = append(r.nodes, nodeBatch{node: node, bw: batchWriter{w: getWriter()}})
		bi = len(r.nodes) - 1
	}
	return r.nodes[bi].bw.entry(fi, w.id, w.del, 0, addr, key)
}

// putIndex routes one record's index records into files[fi]: every
// (chunking, site) piece stream under its §5 composite key.
func (r *writeRound) putIndex(fi int, recs []core.IndexRecord, kSites int, slotBits uint) {
	for _, rec := range recs {
		for k, stream := range rec.Streams {
			key := ComposeIndexKey(rec.RID, rec.J, k, kSites, slotBits)
			indexValue{firstIndex: uint32(rec.FirstIndex), pieces: stream}.encodeTo(r.add(fi, key))
		}
	}
}

// delIndex routes the deletes of a record's m·k index keys into files[fi].
func (r *writeRound) delIndex(fi int, rid uint64, m, kSites int, slotBits uint) {
	for j := 0; j < m; j++ {
		for k := 0; k < kSites; k++ {
			r.add(fi, ComposeIndexKey(rid, j, k, kSites, slotBits))
		}
	}
}

// write runs one write round in the coordinator's bracket: route adds
// the entries, every destination node gets its put_batch at once, and
// the answers update the client images and each file's delta. On partial
// failure the answering nodes' entries stay applied and a *BatchError
// names the failed nodes; repeating the write completes it.
func (c *Cluster) write(ctx context.Context, files []writeFile, route func(r *writeRound)) error {
	return c.coord.do(ctx, files, func() error {
		r := writeRound{c: c, files: files}
		c.mu.Lock()
		for i := range files {
			files[i].f = c.file(files[i].id)
		}
		route(&r)
		c.mu.Unlock()

		nodeIDs := make([]transport.NodeID, len(r.nodes))
		payloads := make([][]byte, len(r.nodes))
		for i := range r.nodes {
			nodeIDs[i] = r.nodes[i].node
			payloads[i] = r.nodes[i].bw.finish()
		}
		c.met.batches.Add(uint64(len(r.nodes)))
		results := transport.ScatterList(ctx, c.tr, opPutBatch, nodeIDs, payloads)
		for i := range r.nodes {
			putWriter(r.nodes[i].bw.w)
		}

		c.mu.Lock()
		failed, err := r.fold(results)
		c.mu.Unlock()
		if err == nil && failed != nil {
			// With unreachable nodes a split would likely fail too and
			// mask the partial-failure report; leave the overflow for the
			// next write.
			err = &BatchError{Failures: failed}
		}
		return err
	})
}

// fold applies each node's answer — per group its count, then one
// keyResp per entry — and collects the nodes that failed.
func (r *writeRound) fold(results []transport.Result) ([]NodeFailure, error) {
	var failed []NodeFailure
	for bi, res := range results {
		if res.Err != nil {
			failed = append(failed, NodeFailure{Node: res.Node, Err: res.Err})
			continue
		}
		if err := r.nodes[bi].bw.readAnswer(res.Payload, func(tag int, pr keyResp) { r.c.absorb(&r.files[tag], pr) }); err != nil {
			return nil, err
		}
	}
	return failed, nil
}

// InsertIndexed stores the index records of one record in one write
// round: one put_batch per destination node instead of m·k puts.
func (c *Cluster) InsertIndexed(ctx context.Context, id FileID, recs []core.IndexRecord, kSites int, slotBits uint) error {
	return c.write(ctx, []writeFile{{id: id}}, func(r *writeRound) { r.putIndex(0, recs, kSites, slotBits) })
}

// DeleteIndexed removes all index pieces of a record in one write round.
func (c *Cluster) DeleteIndexed(ctx context.Context, id FileID, rid uint64, m, kSites int, slotBits uint) error {
	return c.write(ctx, []writeFile{{id: id, del: true}}, func(r *writeRound) { r.delIndex(0, rid, m, kSites, slotBits) })
}

// InsertRecord writes in one round sealed under rid in FileRecords, recs
// in FileIndex and, if non-nil, the word blob in FileWords.
func (c *Cluster) InsertRecord(ctx context.Context, rid uint64, sealed []byte, recs []core.IndexRecord, kSites int, slotBits uint, words []byte) error {
	c.met.puts.Inc()
	return c.write(ctx, []writeFile{{id: FileRecords}, {id: FileIndex}, {id: FileWords}}, func(r *writeRound) {
		r.add(0, rid).raw(sealed)
		r.putIndex(1, recs, kSites, slotBits)
		if words != nil {
			r.add(2, rid).raw(words)
		}
	})
}

// DeleteRecord removes in one round rid from FileRecords, its m·k index
// pieces from FileIndex and, with words, its FileWords blob, reporting
// whether the record existed; the rest is deleted either way.
func (c *Cluster) DeleteRecord(ctx context.Context, rid uint64, m, kSites int, slotBits uint, words bool) (bool, error) {
	c.met.deletes.Inc()
	files := []writeFile{{id: FileRecords, del: true}, {id: FileIndex, del: true}, {id: FileWords, del: true}}
	err := c.write(ctx, files, func(r *writeRound) {
		r.add(0, rid)
		r.delIndex(1, rid, m, kSites, slotBits)
		if words {
			r.add(2, rid)
		}
	})
	return files[0].delta < 0, err
}

// gather broadcasts one request to every node and returns the
// answering nodes' payloads, undecoded. It sends to the placement's
// authoritative membership, not the transport's live view, so a crashed
// node surfaces as a failure rather than being skipped. Nodes that do
// not answer come back as failures; the caller's context ending fails
// the call. It runs in the coordinator's bracket: a migration committing
// between two nodes' answers would hide the moved records from both.
func (c *Cluster) gather(ctx context.Context, op uint8, req []byte) ([][]byte, []NodeFailure, error) {
	var results []transport.Result
	if err := c.coord.do(ctx, nil, func() error {
		results = transport.Broadcast(ctx, c.tr, c.place.Nodes(), op, req)
		return ctx.Err()
	}); err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, 0, len(results))
	var failed []NodeFailure
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, NodeFailure{Node: r.Node, Err: r.Err})
			continue
		}
		payloads = append(payloads, r.Payload)
	}
	return payloads, failed, nil
}

// answer returns a search's RIDs, or, when some node failed, an
// *IncompleteError carrying them.
func (c *Cluster) answer(rids []uint64, failed []NodeFailure) ([]uint64, error) {
	if len(failed) == 0 {
		return rids, nil
	}
	c.met.searchesPartial.Inc()
	c.met.failedSites.Add(uint64(len(failed)))
	return nil, &IncompleteError{RIDs: rids, Failed: failed}
}

// Search broadcasts a compiled query to every node in parallel, gathers
// the raw per-site hits, and combines them: a series hit requires all K
// sites of a chunking to agree at the same chunk offset; record-level
// acceptance follows the verification mode. It returns the sorted
// matching RIDs. When some node does not answer it returns an
// *IncompleteError holding the answering nodes' matches.
func (c *Cluster) Search(ctx context.Context, id FileID, pl *core.Pipeline, query *core.Query, mode core.VerifyMode) ([]uint64, error) {
	c.met.searches.Inc()
	start := time.Now()
	defer func() { c.met.searchNS.Observe(time.Since(start).Nanoseconds()) }()
	kSites := pl.K()
	m := pl.Chunkings()
	payloads, failed, err := c.gather(ctx, opSearch, encode(queryToSearchReq(id, query, m, kSites)))
	if err != nil {
		return nil, err
	}

	ppc := 1
	if kSites == 1 {
		ppc = int((pl.ChunkBits() + 15) / 16)
	}
	rids, err := combineHits(payloads, m, kSites, ppc, mode, pl.Params().Chunk)
	if err != nil {
		return nil, err
	}
	return c.answer(rids, failed)
}

// WordSearch broadcasts one word token to every node and returns the
// sorted RIDs of records whose word blob contains it — the [SWP00]
// word-search path. Exact: no false positives, no false negatives. When
// some node does not answer it returns an *IncompleteError, as Search.
func (c *Cluster) WordSearch(ctx context.Context, id FileID, token []byte) ([]uint64, error) {
	c.met.wordSearches.Inc()
	payloads, failed, err := c.gather(ctx, opWordSearch, encode(wordSearchReq{file: id, token: token}))
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, b := range payloads {
		resp, err := decode[wordSearchResp](b)
		if err != nil {
			return nil, err
		}
		out = append(out, resp.rids...)
	}
	// While a migration is in flight both the source (frozen outgoing
	// set) and the target (absorbed copy) serve the moved records, so a
	// RID can be reported twice; collapse duplicates.
	slices.Sort(out)
	return c.answer(slices.Compact(out), failed)
}

// BucketInventory gathers every node's bucket stats for a file, sorted
// by address — an operator/debugging view.
func (c *Cluster) BucketInventory(ctx context.Context, id FileID) ([]BucketInfo, error) {
	return bucketInventory(ctx, c.tr, c.place, id)
}
