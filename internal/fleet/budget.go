package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/whatif"
)

var (
	mEvictions = telemetry.Default().Counter("indexsel_fleet_table_evictions_total",
		"Cost-table cache evictions performed by the fleet's global memory budget.")
	mResident = telemetry.Default().Gauge("indexsel_fleet_table_resident_bytes",
		"Retained (idle, unpinned) cost-table bytes currently resident under the fleet budget.")
	mSpills = telemetry.Default().Counter("indexsel_fleet_table_spills_total",
		"Cost-table evictions that serialized the tables to a spill file instead of discarding them.")
	mRestores = telemetry.Default().Counter("indexsel_fleet_table_spill_restores_total",
		"Cost-table caches restored from a spill file on re-pin instead of rebuilding from the source.")
	mSpilled = telemetry.Default().Gauge("indexsel_fleet_table_spilled_bytes",
		"Cost-table bytes currently parked in spill files on disk.")
	mSpillCorrupt = telemetry.Default().Counter("indexsel_fleet_spill_corrupt_total",
		"Spill files rejected as corrupt (checksum, truncation, bad magic) on restore; the cache was evicted and rebuilt from its source.")
)

// Evictable is the cache contract the budget manages: report retained bytes,
// release them on demand. *whatif.Optimizer implements it; rebuilding after
// eviction is the cache's own read-through behavior.
type Evictable interface {
	TableBytes() int64
	EvictTables() int64
}

// Spiller is an Evictable whose tables can round-trip through a disk file:
// SpillTables writes them to path and evicts, RestoreTables reads them back
// (consuming the file) and returns the restored resident bytes.
// *whatif.Optimizer implements it for the flat backend. When a budget has a
// spill directory, Spiller victims are spilled on eviction and restored on
// their next Pin, so a re-dispatched tenant pays a sequential file read
// instead of re-running the what-if source.
type Spiller interface {
	Evictable
	SpillTables(path string) (int64, error)
	RestoreTables(path string) (int64, error)
}

// TableBudget bounds the total retained cost-table bytes across a fleet's
// cluster caches with an LRU tier: while a cache is pinned (some tenant is
// running against it) it is working memory and exempt; when its last pin is
// released the cache's bytes join the retained pool, and the least recently
// used unpinned caches are evicted until the pool fits the budget again.
// Evicted caches rebuild on demand (deterministic sources), so the budget
// trades repeated what-if calls for bounded memory — peak RSS is bounded by
// budget + the working set of the currently pinned caches, not by fleet
// size.
//
// The zero value is unusable; construct with NewTableBudget. A limit <= 0
// disables eviction but keeps the accounting (resident, high-water mark), so
// an unbounded run can report the footprint a bounded run would have to
// manage.
type TableBudget struct {
	mu       sync.Mutex
	limit    int64
	clock    int64
	seq      int64 // registration counter; eviction tie-break and spill file names
	spillDir string
	entries  map[Evictable]*budgetEntry

	resident     int64 // retained bytes across unpinned entries
	maxResident  int64
	evictions    int64
	spills       int64
	restores     int64
	spillErrs    int64
	spillCorrupt int64 // subset of spillErrs: restores rejected as corrupt
	onDisk       int64 // bytes currently parked in spill files
}

type budgetEntry struct {
	pins      int
	bytes     int64 // retained bytes counted toward resident (unpinned only)
	lastUse   int64
	seq       int64  // registration order; breaks lastUse ties deterministically
	spillPath string // non-empty while the entry's tables are parked on disk
	spillSize int64  // bytes the spilled tables held (for onDisk accounting)
}

// NewTableBudget builds a budget with the given retained-bytes limit
// (<= 0 = unlimited, accounting only).
func NewTableBudget(limit int64) *TableBudget {
	return &TableBudget{limit: limit, entries: make(map[Evictable]*budgetEntry)}
}

// Limit returns the configured retained-bytes ceiling (<= 0 = unlimited).
func (b *TableBudget) Limit() int64 { return b.limit }

// SpillTo enables spill-to-disk under dir: evicting a Spiller serializes its
// tables to a file there instead of discarding them, and the next Pin
// restores from that file. The directory must exist and should be private to
// one fleet run — spill files encode process-local interned IDs and are
// meaningless to any other process. Call before the run starts.
func (b *TableBudget) SpillTo(dir string) {
	b.mu.Lock()
	b.spillDir = dir
	b.mu.Unlock()
}

// Pin marks e as in use. Pinned caches never count as retained and are never
// evicted; clusters shared by concurrent tenants pin once per running tenant.
// If e's tables were spilled to disk, the first pin restores them before
// returning (a failed restore is not fatal: the cache rebuilds from its
// source on demand).
func (b *TableBudget) Pin(e Evictable) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ent := b.entries[e]
	if ent == nil {
		b.seq++
		ent = &budgetEntry{seq: b.seq}
		b.entries[e] = ent
	}
	if ent.pins == 0 && ent.bytes > 0 {
		// Leaving the retained pool: its bytes become working memory.
		b.resident -= ent.bytes
		ent.bytes = 0
	}
	if ent.pins == 0 && ent.spillPath != "" {
		// Restore under the budget lock: the disk read serializes sibling
		// pins, but restores are rare (one per re-dispatch after eviction)
		// and racing a restore against a concurrent spill of the same entry
		// would be worse.
		if _, err := e.(Spiller).RestoreTables(ent.spillPath); err == nil {
			b.restores++
			mRestores.Inc()
		} else {
			b.spillErrs++
			if errors.Is(err, whatif.ErrSpillCorrupt) {
				b.spillCorrupt++
				mSpillCorrupt.Inc()
			}
			// Degrade, never fail: drop anything a malformed file may have
			// merged and delete the unusable file; the cache read-throughs
			// from its deterministic source on demand.
			e.EvictTables()
			os.Remove(ent.spillPath)
		}
		b.onDisk -= ent.spillSize
		mSpilled.Set(float64(b.onDisk))
		ent.spillPath, ent.spillSize = "", 0
	}
	ent.pins++
	mResident.Set(float64(b.resident))
}

// Unpin releases one pin on e. When the last pin drops, e's current
// TableBytes join the retained pool and LRU eviction runs until the pool is
// within the limit. Unpin of an unpinned or unknown cache is a no-op.
func (b *TableBudget) Unpin(e Evictable) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ent := b.entries[e]
	if ent == nil || ent.pins == 0 {
		return
	}
	ent.pins--
	if ent.pins > 0 {
		return
	}
	b.clock++
	ent.lastUse = b.clock
	ent.bytes = e.TableBytes()
	b.resident += ent.bytes
	b.evictLocked()
	if b.resident > b.maxResident {
		b.maxResident = b.resident
	}
	mResident.Set(float64(b.resident))
}

// evictLocked drops least-recently-used unpinned caches until resident fits
// the limit, breaking last-use ties by registration order (oldest first) so
// victim selection is deterministic even though entries live in a map. The
// just-unpinned cache is itself eligible: a single cache larger than the
// whole budget is evicted immediately, keeping the retained pool under the
// limit at all times. With a spill directory configured, Spiller victims are
// serialized to disk instead of discarded; a spill failure falls back to a
// plain eviction (rebuild-from-source), never to an over-budget pool.
func (b *TableBudget) evictLocked() {
	if b.limit <= 0 {
		return
	}
	for b.resident > b.limit {
		var victim Evictable
		var ventry *budgetEntry
		for e, ent := range b.entries {
			if ent.pins > 0 || ent.bytes == 0 {
				continue
			}
			if ventry == nil || ent.lastUse < ventry.lastUse ||
				(ent.lastUse == ventry.lastUse && ent.seq < ventry.seq) {
				victim, ventry = e, ent
			}
		}
		if ventry == nil {
			return // nothing evictable; all remaining bytes are pinned
		}
		if sp, ok := victim.(Spiller); ok && b.spillDir != "" {
			path := filepath.Join(b.spillDir, fmt.Sprintf("tables-%d.spill", ventry.seq))
			if _, err := sp.SpillTables(path); err == nil {
				ventry.spillPath = path
				ventry.spillSize = ventry.bytes
				b.onDisk += ventry.bytes
				b.spills++
				mSpills.Inc()
				mSpilled.Set(float64(b.onDisk))
			} else {
				b.spillErrs++
				victim.EvictTables()
			}
		} else {
			victim.EvictTables()
		}
		b.resident -= ventry.bytes
		ventry.bytes = 0
		b.evictions++
		mEvictions.Inc()
	}
}

// Stats reports the budget's accounting: current retained bytes, the
// high-water mark, and the number of evictions performed.
func (b *TableBudget) Stats() (resident, maxResident, evictions int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.resident, b.maxResident, b.evictions
}

// SpillStats reports the spill half of the accounting: tables serialized to
// disk, tables restored from disk, and spill/restore errors that fell back to
// plain eviction or rebuild.
func (b *TableBudget) SpillStats() (spills, restores, errs int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spills, b.restores, b.spillErrs
}
