package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"repro/esdds"
	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/sdds"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The traced stack is the system of openStack assembled by hand from the
// same internal pieces, with a timing shim at every seam the program
// already has. Nothing outside this directory is edited.

// tracedTransport wraps a transport.Transport: one span per Send. The
// parent comes from the context — the client's sdds.Cluster call, or for a
// node's peer transport the handler that is forwarding.
type tracedTransport struct {
	transport.Transport
	t    *tracer
	kind spanKind // spanSend or spanPeerSend
}

func (tt *tracedTransport) Send(ctx context.Context, node transport.NodeID, op uint8, payload []byte) ([]byte, error) {
	id := tt.t.begin(span{parent: spanFrom(ctx), kind: tt.kind, opcode: op, node: int8(node)})
	resp, err := tt.Transport.Send(ctx, node, op, payload)
	tt.t.endIO(id, len(payload), len(resp))
	return resp, err
}

// SendsWithContext keeps the pooled transport's marker visible through the
// wrapper, so fan-out takes the same path as in the untraced stack.
func (tt *tracedTransport) SendsWithContext() bool {
	cs, ok := tt.Transport.(transport.CtxSender)
	return ok && cs.SendsWithContext()
}

// tracedHandler wraps node.Handler(): one server-side span per request,
// handed down in the context so the node's forwards nest under it. For a
// put_batch it notes the entry count, for a search the hit count.
func tracedHandler(t *tracer, node transport.NodeID, h transport.Handler) transport.Handler {
	return func(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
		id := t.begin(span{kind: spanHandler, opcode: op, node: int8(node)})
		resp, err := h(withSpan(ctx, id), op, payload)
		entries, hits := 0, 0
		switch sdds.OpName(op) {
		case "put_batch": // file u8, entry count u32, entries
			if len(payload) >= 5 {
				entries = int(binary.BigEndian.Uint32(payload[1:]))
			}
		case "search": // hit count u32, hits
			if len(resp) >= 4 {
				hits = int(binary.BigEndian.Uint32(resp))
			}
		}
		t.endIO(id, entries, hits)
		return resp, err
	}
}

// tracedWAL wraps *wal.Store behind the node's sdds.Store interface: a span
// per Journal and per Checkpoint.
type tracedWAL struct {
	*wal.Store
	t    *tracer
	node int8
}

func (w *tracedWAL) Journal(op uint8, payload []byte) error {
	id := w.t.begin(span{kind: spanJournal, opcode: op, node: w.node})
	err := w.Store.Journal(op, payload)
	w.t.end(id)
	return err
}

func (w *tracedWAL) Checkpoint(image []byte) error {
	id := w.t.begin(span{kind: spanCheckpoint, node: w.node})
	err := w.Store.Checkpoint(image)
	w.t.end(id)
	return err
}

// tracedFS wraps wal.OSFS: it counts Sync calls and bytes written, and
// remembers how much of each file had been synced, so the restart check can
// cut every file back to what was durable.
type tracedFS struct {
	wal.OSFS
	mu      sync.Mutex
	syncs   int64
	written int64
	files   map[string]*fileLen
}

type fileLen struct{ written, synced int64 }

func newTracedFS() *tracedFS { return &tracedFS{files: make(map[string]*fileLen)} }

func (fs *tracedFS) open(name string, f wal.File, err error, size int64) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fl := &fileLen{written: size, synced: size}
	fs.files[name] = fl
	fs.mu.Unlock()
	return &tracedFile{File: f, fs: fs, len: fl}, nil
}

func (fs *tracedFS) OpenAppend(name string) (wal.File, error) {
	var size int64
	if st, err := os.Stat(name); err == nil {
		size = st.Size()
	}
	f, err := fs.OSFS.OpenAppend(name)
	return fs.open(name, f, err, size)
}

func (fs *tracedFS) OpenTrunc(name string) (wal.File, error) {
	f, err := fs.OSFS.OpenTrunc(name)
	return fs.open(name, f, err, 0)
}

func (fs *tracedFS) Rename(oldname, newname string) error {
	err := fs.OSFS.Rename(oldname, newname)
	if err == nil {
		fs.mu.Lock()
		if fl, ok := fs.files[oldname]; ok {
			fs.files[newname] = fl
			delete(fs.files, oldname)
		}
		fs.mu.Unlock()
	}
	return err
}

func (fs *tracedFS) Truncate(name string, size int64) error {
	err := fs.OSFS.Truncate(name, size)
	if err == nil {
		fs.mu.Lock()
		if fl, ok := fs.files[name]; ok {
			fl.written, fl.synced = size, size
		}
		fs.mu.Unlock()
	}
	return err
}

// totals returns the Sync calls and the bytes written so far.
func (fs *tracedFS) totals() (syncs, written int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs, fs.written
}

// cutToSynced truncates every tracked file that still exists to its last
// synced length: what a power cut would have left.
func (fs *tracedFS) cutToSynced() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, fl := range fs.files {
		if _, err := os.Stat(name); err != nil {
			continue
		}
		if err := os.Truncate(name, fl.synced); err != nil {
			return err
		}
	}
	return nil
}

type tracedFile struct {
	wal.File
	fs  *tracedFS
	len *fileLen
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.len.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *tracedFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.fs.mu.Lock()
		f.fs.syncs++
		f.len.synced = f.len.written
		f.fs.mu.Unlock()
	}
	return err
}

// tracedStore mirrors esdds.Store's Insert, Search, Delete and Get call for
// call, with a span around each call into a layer.
type tracedStore struct {
	t        *tracer
	cluster  *sdds.Cluster
	pipeline *core.Pipeline
	records  *cipherx.RecordCipher
	slotBits uint
	// stored is the sum of value bytes this store sent in put and put_batch
	// entries: the space the scheme takes for the plaintext it was given.
	stored int64
}

// indexParams is the pipeline configuration esdds.Open derives from
// storeConfig and the passphrase.
func indexParams() core.Params {
	return core.Params{
		Chunk:      chunk.Params{S: storeConfig.ChunkSize, M: storeConfig.Chunkings},
		DisperseK:  storeConfig.DispersionSites,
		MatrixKind: disperse.MatrixRandom,
		Key:        cipherx.DeriveKey(cipherx.KeyFromPassphrase(passphrase), "index-file"),
	}
}

func newTracedStore(t *tracer, cluster *sdds.Cluster) (*tracedStore, error) {
	pl, err := core.NewPipeline(indexParams())
	if err != nil {
		return nil, err
	}
	cluster.SetMaxLoad(sdds.FileRecords, storeConfig.MaxBucketLoad)
	cluster.SetMaxLoad(sdds.FileIndex, storeConfig.MaxBucketLoad)
	return &tracedStore{
		t:        t,
		cluster:  cluster,
		pipeline: pl,
		records:  cipherx.NewRecordCipher(cipherx.DeriveKey(cipherx.KeyFromPassphrase(passphrase), "record-file")),
		slotBits: sdds.SlotBits(pl.Chunkings(), pl.K()),
	}, nil
}

func ridAD(rid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return b[:]
}

// call runs fn inside a child span of parent and hands fn a context that
// makes the span the parent of whatever fn sends.
func (s *tracedStore) call(ctx context.Context, parent int32, kind spanKind, fn func(ctx context.Context)) {
	id := s.t.begin(span{parent: parent, kind: kind})
	fn(withSpan(ctx, id))
	s.t.end(id)
}

func (s *tracedStore) op(class opKind) int32 {
	return s.t.begin(span{kind: spanOp, class: class, phase: s.t.phase})
}

func (s *tracedStore) Insert(ctx context.Context, rid uint64, content []byte) (err error) {
	root := s.op(opInsert)
	defer s.t.end(root)
	var sealed []byte
	s.call(ctx, root, spanSeal, func(context.Context) { sealed = s.records.Seal(ridAD(rid), content) })
	s.call(ctx, root, spanCluster, func(ctx context.Context) { err = s.cluster.Put(ctx, sdds.FileRecords, rid, sealed) })
	if err != nil {
		return err
	}
	var recs []core.IndexRecord
	s.call(ctx, root, spanBuildIndex, func(context.Context) { recs, err = s.pipeline.BuildIndex(rid, content) })
	if err != nil {
		return err
	}
	s.stored += int64(len(sealed))
	for _, r := range recs {
		for _, stream := range r.Streams {
			s.stored += int64(8 + 2*len(stream)) // the index value: first index + pieces
		}
	}
	s.call(ctx, root, spanCluster, func(ctx context.Context) {
		err = s.cluster.InsertIndexed(ctx, sdds.FileIndex, recs, s.pipeline.K(), s.slotBits)
	})
	return err
}

func (s *tracedStore) Get(ctx context.Context, rid uint64) (content []byte, err error) {
	root := s.op(opGet)
	defer s.t.end(root)
	var sealed []byte
	var ok bool
	s.call(ctx, root, spanCluster, func(ctx context.Context) { sealed, ok, err = s.cluster.Get(ctx, sdds.FileRecords, rid) })
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, esdds.ErrNotFound
	}
	s.call(ctx, root, spanOpen, func(context.Context) { content, err = s.records.Open(ridAD(rid), sealed) })
	return content, err
}

func (s *tracedStore) Delete(ctx context.Context, rid uint64) (err error) {
	root := s.op(opDelete)
	defer s.t.end(root)
	var found bool
	s.call(ctx, root, spanCluster, func(ctx context.Context) { found, err = s.cluster.Delete(ctx, sdds.FileRecords, rid) })
	if err != nil {
		return err
	}
	if !found {
		return esdds.ErrNotFound
	}
	s.call(ctx, root, spanCluster, func(ctx context.Context) {
		err = s.cluster.DeleteIndexed(ctx, sdds.FileIndex, rid, s.pipeline.Chunkings(), s.pipeline.K(), s.slotBits)
	})
	return err
}

func (s *tracedStore) Search(ctx context.Context, substring []byte, mode esdds.SearchMode) (rids []uint64, err error) {
	root := s.op(opSearch)
	defer s.t.end(root)
	var query *core.Query
	s.call(ctx, root, spanBuildQuery, func(context.Context) {
		query, err = s.pipeline.BuildQuery(substring, mode != esdds.SearchFast)
	})
	if err != nil {
		return nil, err
	}
	verify := core.VerifyAny
	switch mode {
	case esdds.SearchVerified:
		verify = core.VerifyAll
	case esdds.SearchExact:
		verify = core.VerifyAligned
	}
	s.call(ctx, root, spanCluster, func(ctx context.Context) {
		rids, err = s.cluster.Search(ctx, sdds.FileIndex, s.pipeline, query, verify)
	})
	return rids, err
}

// tracedCluster owns the hand-assembled pieces of one traced stack.
type tracedCluster struct {
	inner   *sdds.Cluster
	fs      *tracedFS
	stores  []*wal.Store
	outcome []wal.Outcome
	// closeStores checkpoint and close the nodes' durable stores; closers
	// release transports, servers and the migration log, in reverse order.
	closeStores []func() error
	closers     []func() error
}

// openTracedCluster follows esdds.StartLocalTCPCluster step by step,
// inserting the shims: loopback listeners, a peer transport shared by the
// nodes, one node + optional durable store + server per listener, a pooled
// client transport, and the coordinator's migration log.
func openTracedCluster(t *tracer, fs *tracedFS, dataDir string) (_ *tracedCluster, err error) {
	c := &tracedCluster{fs: fs}
	ids := make([]transport.NodeID, nodes)
	addrs := make(map[transport.NodeID]string, nodes)
	var listeners []net.Listener
	defer func() {
		if err != nil {
			for _, l := range listeners { // not yet owned by a server
				l.Close() //nolint:errcheck // unwinding a failed open
			}
			c.close() //nolint:errcheck // unwinding a failed open
		}
	}()
	for i := range ids {
		ids[i] = transport.NodeID(i)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, lis)
		addrs[ids[i]] = lis.Addr().String()
	}
	place, err := sdds.NewPlacement(ids)
	if err != nil {
		return nil, err
	}
	peers := transport.NewTCP(addrs)
	c.closers = append(c.closers, peers.Close)
	handlers := make([]transport.Handler, nodes)
	for i, id := range ids {
		node := sdds.NewNode(id, &tracedTransport{Transport: peers, t: t, kind: spanPeerSend}, place)
		if dataDir != "" {
			st, err := wal.Open(fs, filepath.Join(dataDir, fmt.Sprintf("node-%d", id)), wal.Options{})
			if err != nil {
				return nil, err
			}
			c.stores = append(c.stores, st)
			out, err := node.AttachStore(&tracedWAL{Store: st, t: t, node: int8(id)})
			if err != nil {
				return nil, fmt.Errorf("node %d: %w", id, err)
			}
			c.outcome = append(c.outcome, out)
			c.closeStores = append(c.closeStores, node.CloseStore)
		}
		handlers[i] = tracedHandler(t, id, node.Handler())
	}
	var lg *sdds.FileMigrationLog
	if dataDir != "" {
		if lg, err = sdds.OpenFileMigrationLog(wal.OSFS{}, filepath.Join(dataDir, "coordinator")); err != nil {
			return nil, err
		}
		c.closers = append(c.closers, lg.Close)
	}
	// From here on each listener belongs to its server.
	for i, h := range handlers {
		srv := transport.NewServer(h)
		go srv.Serve(listeners[i]) //nolint:errcheck // returns once srv.Close has closed the listener
		c.closers = append(c.closers, srv.Close)
	}
	listeners = nil
	client := transport.NewTCP(addrs)
	c.closers = append(c.closers, client.Close)
	c.inner = sdds.NewCluster(&tracedTransport{Transport: client, t: t, kind: spanSend}, place)
	if lg != nil {
		if _, err := c.inner.AttachMigrationLog(lg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// close shuts the stack down gracefully, stores first (a final checkpoint
// each), then transports and servers.
func (c *tracedCluster) close() error {
	var first error
	for _, fn := range c.closeStores {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	c.closeStores = nil
	for i := len(c.closers) - 1; i >= 0; i-- {
		if err := c.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	c.closers = nil
	return first
}

// crash stops the stack the way a power cut would: no final checkpoint, no
// flush, and every file cut back to its last synced byte.
func (c *tracedCluster) crash() error {
	for _, st := range c.stores {
		st.Abort()
	}
	c.closeStores = nil // no final checkpoint
	if err := c.close(); err != nil {
		return err
	}
	return c.fs.cutToSynced()
}

// openTracedStack is openStack for the traced system.
func openTracedStack(t *tracer, fs *tracedFS) func(dataDir string) (*stack, error) {
	return func(dataDir string) (*stack, error) {
		c, err := openTracedCluster(t, fs, dataDir)
		if err != nil {
			return nil, err
		}
		ts, err := newTracedStore(t, c.inner)
		if err != nil {
			c.close() //nolint:errcheck // unwinding a failed open
			return nil, err
		}
		s := &stack{store: ts}
		s.close = func() error { return c.close() }
		if dataDir != "" {
			s.restart = func() ([]string, error) {
				if err := c.crash(); err != nil {
					return nil, err
				}
				if c, err = openTracedCluster(t, fs, dataDir); err != nil {
					return nil, err
				}
				ts.cluster = c.inner
				c.inner.SetMaxLoad(sdds.FileRecords, storeConfig.MaxBucketLoad)
				c.inner.SetMaxLoad(sdds.FileIndex, storeConfig.MaxBucketLoad)
				out := make([]string, len(c.outcome))
				for i, o := range c.outcome {
					out[i] = o.String()
				}
				return out, nil
			}
		}
		return s, nil
	}
}
