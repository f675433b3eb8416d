package mem

import "sync"

// Pool recycles Spaces of one configuration across program runs. A
// campaign executes thousands of short trial VMs against identically
// sized address spaces; allocating (and zeroing) a multi-megabyte Space
// per trial dominates short runs and hammers the garbage collector.
// Get/Put instead reuse Reset spaces, whose re-zeroing cost is
// proportional to the bytes the previous run actually dirtied.
//
// A reset Space replays any run exactly like a fresh one (see
// Space.Reset), so pooling is invisible in every recorded result. Pool is
// safe for concurrent use; at most one goroutine may use a given Space at
// a time, as always.
//
// The pool also recycles the trace recorders that check traced runs on
// its spaces (GetTrace/PutTrace). Recorders do not depend on the pool's Config.
type Pool struct {
	cfg    Config
	mu     sync.Mutex
	free   []*Space
	traces []*TraceRec
}

// NewPool returns an empty pool producing Spaces of cfg.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg.WithDefaults()} }

// shared is the process-wide pool behind SharedPool.
var shared struct {
	mu   sync.Mutex
	pool *Pool
}

// SharedPool returns the process-wide pool for cfg's normalized geometry,
// so that independent owners of one geometry — say, a fresh harness
// Runner per submission — reuse each other's spaces. It retains only the
// most recently requested geometry: asking for another replaces the
// pool, and the old one, with every space it holds, is garbage once its
// last holder drops it. A caller cycling through geometries therefore
// pins no memory beyond the pools it still holds itself.
func SharedPool(cfg Config) *Pool {
	cfg = cfg.WithDefaults()
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if shared.pool == nil || shared.pool.cfg != cfg {
		shared.pool = NewPool(cfg)
	}
	return shared.pool
}

// Config returns the configuration the pool's spaces are built with,
// normalized (WithDefaults) — compare it against another normalized
// config to decide whether a pool can serve it.
func (p *Pool) Config() Config { return p.cfg }

// Get returns a pristine Space: a recycled one when available, otherwise
// a newly allocated one.
func (p *Pool) Get() *Space {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return NewSpace(p.cfg)
}

// Put resets s and makes it available to future Get calls. The caller
// must not use s afterwards. Put(nil) is a no-op.
func (p *Pool) Put(s *Space) {
	if s == nil {
		return
	}
	s.Reset()
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// GetTrace returns a recorder in the state NewTraceRec(threads, limit)
// gives: a recycled one, reset but keeping its table's size and its
// log's capacity, when available, otherwise a new one.
func (p *Pool) GetTrace(threads, limit int) *TraceRec {
	p.mu.Lock()
	n := len(p.traces)
	if n == 0 {
		p.mu.Unlock()
		return NewTraceRec(threads, limit)
	}
	t := p.traces[n-1]
	p.traces[n-1] = nil
	p.traces = p.traces[:n-1]
	p.mu.Unlock()
	t.reset(threads, limit)
	return t
}

// PutTrace makes t available to future GetTrace calls. The caller must
// not use t afterwards, nor any slice its Mismatches method returned.
// PutTrace(nil) is a no-op.
func (p *Pool) PutTrace(t *TraceRec) {
	if t == nil {
		return
	}
	p.mu.Lock()
	p.traces = append(p.traces, t)
	p.mu.Unlock()
}
