//! Multi-client SFS scale-out: the contracts behind the `"sfs_scale"` bench
//! cells.
//!
//! * per-seed determinism across thread-pool schedules — a parallel sweep is
//!   bit-identical to the serial runner,
//! * per-client fairness (Jain's index over per-stream achieved throughput),
//! * zero payload materialisations across a mixed READ/WRITE sweep point,
//! * the knee shift itself — the scaled stack (per-client LANs, shards,
//!   cores, overlapped I/O, inode groups, read caching) beats the
//!   single-generator baseline at the same offered load,
//! * the hot-loop allocation contract: steady-state op generation
//!   (LOOKUP / READ / GETATTR / WRITE bursts) and the event queue's
//!   schedule/pop cycle perform **zero** heap allocations, pinned by a
//!   counting global allocator, not by eyeball,
//! * and the fleet's build heap: building the benchmark's 256-client fleet
//!   (8,393 files) peaks under 4 MiB, pinned by the same allocator's byte
//!   counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wg_nfsproto::payload::materialize_count;
use wg_server::WritePolicy;
use wg_simcore::{Duration, EventQueue, SimRng, SimTime};
use wg_workload::sfs::SfsSystem;
use wg_workload::{SfsConfig, SfsMix, SfsSweep};

/// A pass-through allocator that counts every allocation and the heap
/// bytes held, per thread.
struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread.  A process-wide counter would
    /// also see libtest's own work — sibling tests, thread spawns, result
    /// messages — landing inside a probe's window; a per-thread one sees
    /// only the probing test.  `const`-initialised and without a destructor,
    /// so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread has allocated minus the bytes it has freed.
    /// A block freed on another thread than the one that allocated it moves
    /// both threads' counts, so only a difference within one window means
    /// anything.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE_BYTES` since the last `reset_peak`.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` so an allocation during thread teardown is simply not
    // counted instead of aborting.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds the old block and the new one at once, so
        // count the new block before the old one is freed.
        count_allocation();
        count_bytes(new_size as i64);
        let moved = System.realloc(ptr, layout, new_size);
        let freed = if moved.is_null() {
            new_size
        } else {
            layout.size()
        };
        count_bytes(-(freed as i64));
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Start a peak window on the calling thread: returns its live bytes now.
fn reset_peak() -> i64 {
    let live = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(live));
    live
}

/// The calling thread's peak live bytes since `reset_peak`.
fn peak_bytes() -> i64 {
    PEAK_BYTES.with(Cell::get)
}

fn quick(load: f64) -> SfsConfig {
    let mut cfg = SfsConfig::figure2(load, WritePolicy::Gathering);
    cfg.duration = Duration::from_secs(4);
    cfg.file_count = 40;
    cfg.file_size = 64 * 1024;
    cfg
}

fn quick_scaled(load: f64, clients: usize) -> SfsConfig {
    let mut cfg = SfsConfig::scaled(load, WritePolicy::Gathering, clients);
    cfg.duration = Duration::from_secs(4);
    cfg.file_count = 40;
    cfg.file_size = 64 * 1024;
    cfg
}

#[test]
fn steady_state_generation_performs_no_heap_allocation() {
    // A mix of only the allocation-free operations: LOOKUP, READ, GETATTR
    // and WRITE bursts.  CREATE legitimately mints a name (it must) and is
    // excluded, exactly as the hot-loop contract states.
    let mut cfg = quick_scaled(1000.0, 2);
    cfg.mix = SfsMix::steady_state();
    let mut system = SfsSystem::new(cfg);
    let now = SimTime::ZERO + Duration::from_millis(1);
    // Warm up: first bursts grow the burst queue to its steady capacity.
    for client in 0..2 {
        for _ in 0..2000 {
            let _ = system.generate_one(now, client);
        }
    }
    let mints_before = system.name_mints();
    let before = allocations();
    for client in 0..2 {
        for _ in 0..10_000 {
            let call = system.generate_one(now, client);
            std::hint::black_box(&call);
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state op generation allocated {delta} times over 20k ops"
    );
    // The generator-level counter agrees: nothing was minted either.
    assert_eq!(system.name_mints(), mints_before);
}

#[test]
fn event_queue_hold_loop_performs_no_heap_allocation() {
    // The classic hold model at a fleet-sized depth: pop the earliest event
    // and reschedule it a random hold later.  Once the heap, the slab and
    // the free list have reached the depth, a schedule reuses the slot its
    // pop just vacated.
    const DEPTH: u64 = 4096;
    let mut rng = SimRng::seed_from(4096);
    let mut queue = EventQueue::new();
    for event in 0..DEPTH {
        queue.schedule_at(SimTime::from_nanos(rng.next_below(2_000_000)), event);
    }
    let mut hold = |queue: &mut EventQueue<u64>| {
        let (_, event) = queue.pop().expect("the hold loop keeps the queue full");
        let delay = Duration::from_nanos(rng.next_below(2_000_000));
        queue.schedule_in(delay, std::hint::black_box(event));
    };
    for _ in 0..10_000 {
        hold(&mut queue);
    }
    let before = allocations();
    for _ in 0..100_000 {
        hold(&mut queue);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "the event queue allocated {delta} times over 100k schedule/pop pairs"
    );
    assert_eq!(queue.len() as u64, DEPTH);
}

#[test]
fn fleet_build_peaks_under_four_mib_of_heap() {
    // The benchmark's `sfs_fleet` cell: 256 streams of 32 scratch files
    // each plus 200 prefilled files, 8,393 inodes with the root.  Boxed
    // inodes in a dense table peak near 2.75 MiB; a hash table holding each
    // 368-byte inode in its bucket peaked at 9.8 MiB, half of it in one
    // rehash.
    let mut cfg = SfsConfig::scaled(1200.0, WritePolicy::Gathering, 256).with_leases(true);
    cfg.prestoserve = true;
    cfg.duration = Duration::from_secs(60);
    cfg.seed = 31;
    let start = reset_peak();
    let system = SfsSystem::new(cfg);
    let peak = peak_bytes() - start;
    drop(system);
    assert!(
        peak < 4 << 20,
        "building the fleet peaked at {:.2} MiB of heap",
        peak as f64 / (1 << 20) as f64
    );
}

#[test]
fn create_heavy_generation_allocates_only_name_mints() {
    // With CREATEs back in the mix the only allocations are name mints —
    // the generator-level counter tracks every one of them.
    let mut system = SfsSystem::new(quick(500.0));
    let now = SimTime::ZERO + Duration::from_millis(1);
    for _ in 0..500 {
        let _ = system.generate_one(now, 0);
    }
    assert!(
        system.name_mints() > 0,
        "the LADDIS mix draws CREATEs, which mint names"
    );
}

#[test]
fn parallel_sweep_is_bit_identical_across_schedules() {
    let sweep = SfsSweep::new(quick_scaled(0.0, 3));
    let loads = [150.0, 300.0, 450.0, 600.0, 750.0, 900.0, 1050.0, 1200.0];
    let serial = sweep.run(&loads);
    for threads in [2, 4, 8] {
        let parallel = sweep.run_parallel(&loads, threads);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.offered_ops_per_sec, p.offered_ops_per_sec);
            assert_eq!(s.achieved_ops_per_sec, p.achieved_ops_per_sec);
            assert_eq!(s.avg_latency_ms, p.avg_latency_ms);
            assert_eq!(s.server_cpu_percent, p.server_cpu_percent);
        }
    }
}

#[test]
fn multi_client_point_is_fair_and_materialisation_free() {
    let before = materialize_count();
    let mut system = SfsSystem::new(quick_scaled(800.0, 4));
    system.run();
    assert_eq!(
        materialize_count() - before,
        0,
        "a payload was materialised"
    );
    let per_client = system.per_client_achieved_ops();
    assert_eq!(per_client.len(), 4);
    assert!(
        per_client.iter().all(|&ops| ops > 0.0),
        "every stream carried load: {per_client:?}"
    );
    assert!(
        system.fairness() > 0.9,
        "per-client fairness {} (Jain)",
        system.fairness()
    );
}

#[test]
fn scaled_stack_beats_the_single_client_baseline_at_heavy_load() {
    // A reduced-duration rendition of the recorded knee shift: at the same
    // heavy offered load the full scaled stack completes more operations at
    // lower average latency than the single-generator baseline.
    let load = 1600.0;
    let baseline = SfsSystem::new(quick(load)).run();
    let scaled = SfsSystem::new(quick_scaled(load, 4)).run();
    assert!(
        scaled.achieved_ops_per_sec > baseline.achieved_ops_per_sec * 1.3,
        "scaled {:.0} ops/s vs baseline {:.0} ops/s",
        scaled.achieved_ops_per_sec,
        baseline.achieved_ops_per_sec
    );
    assert!(
        scaled.avg_latency_ms < baseline.avg_latency_ms,
        "scaled latency {:.1} ms vs baseline {:.1} ms",
        scaled.avg_latency_ms,
        baseline.avg_latency_ms
    );
}

#[test]
fn scaled_run_keeps_the_dupcache_and_scratch_contracts() {
    // run() audits the dupcache contract: no InProgress entry evicted.
    let mut system = SfsSystem::new(quick_scaled(1200.0, 4));
    system.run();
    // Scratch offsets never cross the rotation limit (satellite: the old
    // unbounded append stream wrapped `offset as u32` past the UFS cap).
    assert!(system.max_scratch_offset() <= 8 * 1024 * 1024);
    assert_eq!(system.clients(), 4);
    assert_eq!(system.lan_segments(), 4);
}
