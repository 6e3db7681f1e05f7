package fleet

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

var (
	mWorkloadsResident = telemetry.Default().Gauge("indexsel_fleet_workloads_resident",
		"Tenant workloads currently loaded in memory by the fleet prefetcher.")
	mWorkloadBytes = telemetry.Default().Gauge("indexsel_fleet_workload_resident_bytes",
		"Estimated bytes of tenant workloads currently resident in the fleet prefetcher.")
)

// Prefetcher drives fleet mode's load-on-dispatch, release-after-
// result contract: items (tenant workloads) are loaded lazily in a fixed
// order by one background goroutine, at most `window` of them resident at a
// time, so resident workload bytes are O(window), not O(fleet).
//
// The scheduler must consume positions roughly in load order: position p's
// Acquire can only be satisfied after positions < p have been loaded, and the
// loader stalls once `window` items are resident. With the fleet scheduler's
// in-order dispatch (workers pull the next undispatched position), at most
// `workers` positions are in flight, so any window >= workers cannot
// deadlock; NewPrefetcher enforces a floor for that reason.
type Prefetcher struct {
	load   func(pos int) (any, error)
	sizeOf func(item any) int64 // nil = count-only accounting

	mu       sync.Mutex
	haveItem *sync.Cond // signaled when an item finishes loading
	haveRoom *sync.Cond // signaled when a resident item is released
	n        int
	window   int
	next     int // next position the loader will load
	items    map[int]prefetched
	closed   bool

	resident      int   // loaded, not yet released
	residentBytes int64 // sizeOf sum over resident items
	maxResident   int
	maxBytes      int64
}

type prefetched struct {
	item  any
	bytes int64
	err   error
}

// NewPrefetcher builds a prefetcher over n positions with the given window
// (clamped to [workers, n] by the caller's choice; values < 1 become 1) and
// starts its loader goroutine. sizeOf may be nil, disabling byte accounting.
func NewPrefetcher(n, window int, load func(pos int) (any, error), sizeOf func(any) int64) *Prefetcher {
	if window < 1 {
		window = 1
	}
	p := &Prefetcher{load: load, sizeOf: sizeOf, n: n, window: window, items: make(map[int]prefetched)}
	p.haveItem = sync.NewCond(&p.mu)
	p.haveRoom = sync.NewCond(&p.mu)
	go p.run()
	return p
}

// run is the loader: fill the window, wait for releases, stop when every
// position is loaded or the prefetcher is closed. Loads happen outside the
// lock so Acquire/Release never wait on I/O they did not ask for.
func (p *Prefetcher) run() {
	p.mu.Lock()
	for p.next < p.n && !p.closed {
		if p.resident+1 > p.window {
			p.haveRoom.Wait()
			continue
		}
		pos := p.next
		p.next++
		p.mu.Unlock()
		item, err := p.load(pos)
		p.mu.Lock()
		var bytes int64
		if err == nil && p.sizeOf != nil {
			bytes = p.sizeOf(item)
		}
		p.items[pos] = prefetched{item: item, bytes: bytes, err: err}
		p.resident++
		p.residentBytes += bytes
		if p.resident > p.maxResident {
			p.maxResident = p.resident
		}
		if p.residentBytes > p.maxBytes {
			p.maxBytes = p.residentBytes
		}
		p.gaugeLocked()
		p.haveItem.Broadcast()
	}
	p.mu.Unlock()
}

// Acquire blocks until position pos is loaded and returns its item (or the
// load error). The item stays resident — and counts against the window —
// until Release(pos).
func (p *Prefetcher) Acquire(pos int) (any, error) {
	if pos < 0 || pos >= p.n {
		return nil, fmt.Errorf("fleet: prefetch position %d out of range [0,%d)", pos, p.n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if it, ok := p.items[pos]; ok {
			return it.item, it.err
		}
		if p.closed {
			return nil, fmt.Errorf("fleet: prefetcher closed before position %d loaded", pos)
		}
		p.haveItem.Wait()
	}
}

// Release drops position pos from the resident set, freeing a window slot.
// Releasing an unloaded or already-released position is a no-op.
func (p *Prefetcher) Release(pos int) {
	p.mu.Lock()
	if it, ok := p.items[pos]; ok {
		delete(p.items, pos)
		p.resident--
		p.residentBytes -= it.bytes
		p.gaugeLocked()
		p.haveRoom.Signal()
	}
	p.mu.Unlock()
}

// Close stops the loader and unblocks every waiter with an error. Idempotent.
func (p *Prefetcher) Close() {
	p.mu.Lock()
	p.closed = true
	p.haveItem.Broadcast()
	p.haveRoom.Broadcast()
	p.mu.Unlock()
}

// Stats reports the peak resident item count and peak resident bytes — the
// numbers the streaming bench's O(workers) guard checks.
func (p *Prefetcher) Stats() (maxResident int, maxResidentBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxResident, p.maxBytes
}

// Resident reports the currently loaded item count and bytes, for live
// progress publishing.
func (p *Prefetcher) Resident() (int, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident, p.residentBytes
}

func (p *Prefetcher) gaugeLocked() {
	mWorkloadsResident.Set(float64(p.resident))
	mWorkloadBytes.Set(float64(p.residentBytes))
}
