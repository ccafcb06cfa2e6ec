//! Allocation budgets of the path an observation and a firing take outside
//! the engine: what the edge filter, the binder and the `DO`-list executor
//! may ask of the allocator, counted by this binary's own global allocator.
//!
//! The counts are exact, not statistical: every map on the path hashes with
//! the fixed `rfid_epc::hash` mixer, so two runs grow their tables alike. A
//! budget that fails here is a regression of the saving the ledger's
//! `edge.allocs_per_event` and `rules.allocs_per_firing` report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rfid_edge::{DedupFilter, Pipeline};
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, Instance, Observation, Span, Timestamp};
use rfid_rules::actions::execute;
use rfid_rules::ast::RuleDecl;
use rfid_rules::bind::bind;
use rfid_rules::compile::{compile_event, resolve_aliases};
use rfid_rules::{parse_script, Procedures, RuleRuntime};
use rfid_store::Database;

/// The system allocator, counting the calls each thread makes (tests run on
/// threads of their own, so one test's count is not another's).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread may free its last blocks while its locals are going away.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell with a constant initialiser, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is an allocation to whoever pays for it.
        count();
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn epc(serial: u64) -> Epc {
    Gid96::new(1, 1, serial).expect("serial fits").into()
}

fn read(reader: u32, serial: u64, ms: u64) -> Observation {
    Observation::new(ReaderId(reader), epc(serial), Timestamp::from_millis(ms))
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.readers.register("conv", "lines", "line-1");
    c.readers.register("caser", "lines", "line-1");
    c
}

fn one_rule(script: &str) -> RuleDecl {
    let mut parsed = parse_script(script).expect("the script parses");
    parsed.rules.remove(0)
}

#[test]
fn edge_offer_allocates_nothing_past_warm_up() {
    let mut pipeline = Pipeline::new().then(DedupFilter::new(Span::from_secs(5)));
    // A shelf population re-read every second, and a fresh tag every 2 ms
    // that is never seen again: the filter's map holds both, and sweeps the
    // fresh ones out window after window.
    let stream = |from_ms: u64, to_ms: u64| {
        (from_ms..to_ms).step_by(2).flat_map(|ms| {
            let shelf = read(0, (ms / 2) % 500, ms);
            let fresh = read(1, 1_000_000 + ms, ms);
            [shelf, fresh]
        })
    };
    // Warm-up is a dozen windows: swept slots are reused in place only once
    // the table is at least twice what is alive, and it takes a last
    // doubling some windows in to get there.
    let mut released = 0usize;
    for obs in stream(0, 60_000) {
        released += pipeline.offer(obs).count();
    }
    let (allocs, steady) = allocs_in(|| {
        stream(60_000, 180_000)
            .map(|obs| pipeline.offer(obs).count())
            .sum::<usize>()
    });
    assert_eq!(allocs, 0, "120 s of offers past warm-up");
    // Every fresh tag passes; a shelf tag passes once per window.
    assert_eq!(released, 30_000 + 500 * 12);
    assert_eq!(steady, 60_000 + 500 * 24);
}

#[test]
fn scalar_firing_with_one_call_allocates_only_log_blocks() {
    let catalog = catalog();
    let rule = one_rule(
        "CREATE RULE dup, duplicate ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec) \
         IF true DO send_duplicate_msg(r, o, t1)",
    );
    let first = Arc::new(Instance::observation(read(0, 7, 1_000)));
    let second = Arc::new(Instance::observation(read(0, 7, 3_000)));
    let inst = Instance::pair("SEQ", first, second);
    let mut db = Database::rfid();
    let mut procs = Procedures::new();
    let mut fire = |procs: &mut Procedures| {
        let bound = bind(&rule.event, &inst, &catalog).expect("binds");
        for action in &rule.actions {
            execute(action, &bound, &inst, &catalog, &mut db, procs).expect("runs");
        }
    };
    // The first call interns the name and opens the first block.
    fire(&mut procs);
    const FIRINGS: u64 = 3_000;
    let before = procs.log.blocks();
    let (allocs, ()) = allocs_in(|| {
        for _ in 0..FIRINGS {
            fire(&mut procs);
        }
    });
    assert_eq!(procs.log.len() as u64, 1 + FIRINGS);
    // Three arguments a call: a block of 3,072 holds 1,024 calls.
    let opened = (procs.log.blocks() - before) as u64;
    assert_eq!(opened, 2);
    // Each block opened is two allocations, its calls and its arguments
    // (the list of blocks, room for four, does not grow); binding three
    // variables (four sites) and each call cost nothing.
    assert_eq!(allocs, 2 * opened);
}

#[test]
fn a_log_after_a_dropped_one_reuses_its_blocks() {
    let args = [1, 2, 3].map(rfid_store::Value::Int);
    let mut first = Procedures::new();
    for _ in 0..3 * 1_024 {
        first.invoke("a", &args);
    }
    assert_eq!(first.log.blocks(), 3);
    drop(first);
    let mut second = Procedures::new();
    second.intern("a");
    let (allocs, ()) = allocs_in(|| {
        for _ in 0..2 * 1_024 {
            second.invoke("a", &args);
        }
    });
    assert_eq!(second.log.blocks(), 2);
    // The list of blocks' first buffer; both blocks are the first log's.
    assert_eq!(allocs, 1);
}

/// Allocations of one Rule-4-shaped firing over `items` packed items, binder
/// and executor apart, on a fresh store.
fn containment_firing(script: &str, items: u64) -> (u64, u64) {
    let catalog = catalog();
    let rule = one_rule(script);
    let run = (0..items)
        .map(|i| Arc::new(Instance::observation(read(0, i, 100 * i))))
        .collect();
    let case = Arc::new(Instance::observation(read(1, 9_999, 100 * items + 10_000)));
    let inst = Instance::pair("TSEQ", Arc::new(Instance::composite("TSEQ+", run)), case);
    let mut db = Database::rfid();
    let mut procs = Procedures::new();

    let (bind_allocs, bound) = allocs_in(|| bind(&rule.event, &inst, &catalog).expect("binds"));
    assert_eq!(bound.bulk.len() as u64, items);
    let (execute_allocs, ()) = allocs_in(|| {
        for action in &rule.actions {
            execute(action, &bound, &inst, &catalog, &mut db, &mut procs).expect("runs");
        }
    });
    let rows = db.table("OBJECTCONTAINMENT").expect("provisioned").len();
    assert_eq!(rows as u64, items);
    (bind_allocs, execute_allocs)
}

#[test]
fn containment_firing_allocates_per_item_not_per_variable() {
    const DO: &str = "IF true DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, UC)";
    let one_var = format!(
        "CREATE RULE p, pack ON TSEQ(TSEQ+(observation('conv', o1, t1), 0 sec, 1 sec); \
         observation('caser', o2, t2), 5 sec, 20 sec) {DO}"
    );
    let three_vars = format!(
        "CREATE RULE p, pack ON TSEQ(TSEQ+(observation(r1, o1, t1), 0 sec, 1 sec); \
         observation(r2, o2, t2), 5 sec, 20 sec) {DO}"
    );
    for items in [1, 8, 64, 200] {
        let (bind_lean, execute_lean) = containment_firing(&one_var, items);
        let (bind_full, execute_full) = containment_firing(&three_vars, items);
        // One `Vec` of `items` rows, however many variables a row binds.
        assert_eq!((bind_lean, bind_full), (1, 1), "{items} items");
        assert_eq!(execute_lean, execute_full, "{items} items");
        // Per item: the row the interpreter builds. The rest is the first
        // segment of each cell arena and index link arena, and the
        // doubling of the indexes' slot tables: a constant and a small
        // share per item.
        assert!(
            execute_full <= 16 + items + items / 4,
            "{execute_full} allocations for {items} items"
        );
    }
}

// ---------------------------------------------------------------------
// The path production runs: `RuleRuntime::process`, whose firings go
// through `rfid_rules::prepared`. The engine allocates too (instances, its
// own buffers), the same in a runtime as on its own: a budget here is what
// a runtime asks of the allocator over a stream *minus* what a bare engine
// with the same rules and a sink that does nothing asks over that stream.
// Budgets are past warm-up and apart from the growth of a table's cell
// arenas and indexes: each measured window stays inside the arenas' first
// segment (4,096 rows) and between two doublings of the indexes' slot
// tables (512 < rows ≤ 1024). A call allocates only when it opens a
// block of the call log (two allocations, none for a block a log dropped
// earlier on the thread left spare; the list of blocks doubles past four),
// counted off the log.
// ---------------------------------------------------------------------

fn bare_engine(catalog: &Catalog, script: &str) -> rceda::Engine {
    let mut engine = rceda::Engine::new(catalog.clone(), rceda::EngineConfig::default());
    for rule in parse_script(script).expect("the script parses").rules {
        let event =
            resolve_aliases(&rule.event, &std::collections::HashMap::new()).expect("no aliases");
        let expr = compile_event(&event).expect("compiles");
        engine.add_rule(&rule.name, expr).expect("a valid rule");
    }
    engine
}

/// Allocations of the firing path over `measured`, after `warm_up`, the
/// call log blocks opened over `measured`, and the runtime as the stream
/// left it.
fn firing_path_allocs(
    script: &str,
    seed: impl FnOnce(&mut Database),
    warm_up: &[Observation],
    measured: &[Observation],
) -> (u64, u64, RuleRuntime) {
    let catalog = catalog();
    let mut engine = bare_engine(&catalog, script);
    let mut fired = 0u64;
    for obs in warm_up {
        engine.process_batch(std::slice::from_ref(obs), &mut |_, _| fired += 1);
    }
    let (engine_allocs, ()) = allocs_in(|| {
        for obs in measured {
            engine.process_batch(std::slice::from_ref(obs), &mut |_, _| fired += 1);
        }
    });
    assert!(fired > 0);

    let mut rt = RuleRuntime::new(catalog);
    rt.load(script).expect("loads");
    seed(rt.db_mut());
    for obs in warm_up {
        rt.process(*obs);
    }
    let blocks = rt.procedures().log.blocks();
    let (runtime_allocs, ()) = allocs_in(|| {
        for obs in measured {
            rt.process(*obs);
        }
    });
    assert_eq!(rt.error_count(), 0);
    assert_eq!(rt.engine().firings_per_rule().iter().sum::<u64>(), fired);
    let opened = (rt.procedures().log.blocks() - blocks) as u64;
    (runtime_allocs - engine_allocs, opened, rt)
}

/// Reads of objects `from..to` by reader 0, each object twice, a second
/// apart from itself and ten from the next.
fn double_reads(from: u64, to: u64) -> Vec<Observation> {
    (from..to)
        .flat_map(|n| [read(0, n, 10_000 * n), read(0, n, 10_000 * n + 1_000)])
        .collect()
}

#[test]
fn production_scalar_firing_with_one_call_allocates_only_log_blocks() {
    let script =
        "CREATE RULE dup, duplicate ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec) \
         IF true DO send_duplicate_msg(r, o, t1)";
    let (allocs, opened, rt) = firing_path_allocs(
        script,
        |_| {},
        &double_reads(0, 1_000),
        &double_reads(1_000, 2_000),
    );
    assert_eq!(rt.procedures().log.len(), 2_000);
    // A block holds 1,024 three-argument calls: the 1,025th opens one.
    assert_eq!(opened, 1);
    // Its calls and its arguments (the list of blocks, room for four, does
    // not grow); the 1,000 calls themselves, nothing.
    assert_eq!(allocs, 2 * opened);
}

#[test]
fn production_scalar_insert_allocates_nothing_per_row_in_a_segment() {
    let script = "CREATE RULE obs, record ON observation(r, o, t) \
                  IF true DO INSERT INTO OBSERVATION VALUES (r, o, t)";
    let reads = |from: u64, to: u64| (from..to).map(|n| read(0, n, 10 * n)).collect::<Vec<_>>();
    let (allocs, _, rt) = firing_path_allocs(script, |_| {}, &reads(0, 600), &reads(600, 1_000));
    assert_eq!(
        rt.db().table("OBSERVATION").expect("provisioned").len(),
        1_000
    );
    // The 400 rows are written cell by cell into the segment the first
    // row opened; the reader's name is the catalog's own `Arc<str>`.
    assert_eq!(allocs, 0);
}

#[test]
fn production_update_over_an_indexed_key_allocates_nothing() {
    let script = "CREATE RULE loc, close ON observation(r, o, t) \
                  IF true DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = UC";
    let open_periods = |db: &mut Database| {
        let table = db.table_mut("OBJECTLOCATION").expect("provisioned");
        for n in 0..500 {
            let start = rfid_store::Value::Time(Timestamp::ZERO);
            let row = vec![epc(n).into(), "dock".into(), start, rfid_store::Value::Uc];
            table.insert(row).expect("fits");
        }
    };
    let reads = |from: u64, to: u64| (from..to).map(|n| read(0, n, 10 * n)).collect::<Vec<_>>();
    let (allocs, _, rt) =
        firing_path_allocs(script, open_periods, &reads(0, 100), &reads(100, 500));
    let closed = rfid_store::Filter::on(rfid_store::Cond::new(
        "tend",
        rfid_store::CondOp::Ne,
        rfid_store::Value::Uc,
    ));
    let table = rt.db().table("OBJECTLOCATION").expect("provisioned");
    assert_eq!(table.count(&closed), Ok(500));
    assert_eq!(allocs, 0);
}

#[test]
fn production_containment_firing_allocates_nothing_per_row_in_a_segment() {
    const DO: &str = "IF true DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, UC)";
    let one_var = format!(
        "CREATE RULE p, pack ON TSEQ(TSEQ+(observation('conv', o1, t1), 0 sec, 1 sec); \
         observation('caser', o2, t2), 5 sec, 20 sec) {DO}"
    );
    let three_vars = format!(
        "CREATE RULE p, pack ON TSEQ(TSEQ+(observation(r1, o1, t1), 0 sec, 1 sec); \
         observation(r2, o2, t2), 5 sec, 20 sec) {DO}"
    );
    // `items` reads on the conveyor 100 ms apart, then the case 10 s later.
    let packing = |first_item: u64, items: u64, from_ms: u64| {
        let mut reads: Vec<_> = (0..items)
            .map(|i| read(0, first_item + i, from_ms + 100 * i))
            .collect();
        reads.push(read(
            1,
            1_000_000 + first_item,
            from_ms + 100 * items + 10_000,
        ));
        reads
    };
    for items in [1, 8, 64, 200] {
        for script in [&one_var, &three_vars] {
            // A first case of 600 items takes the table's indexes past their
            // doubling at 512 rows; the measured one stays short of 1024,
            // inside the arenas' first segment. The first also leaves the
            // frame a run buffer of 600 elements.
            let mut warm_up = packing(0, 600, 0);
            warm_up.extend(packing(5_000, 3, 500_000));
            let measured = packing(10_000, items, 1_000_000);
            let (allocs, _, rt) = firing_path_allocs(script, |_| {}, &warm_up, &measured);
            let rows = rt
                .db()
                .table("OBJECTCONTAINMENT")
                .expect("provisioned")
                .len();
            assert_eq!(rows as u64, 603 + items);
            // Rows go into the segment, the frame's run buffer is the last
            // firing's.
            assert_eq!(allocs, 0, "{items} items");
        }
    }
}

/// `(allocations, calls)` of one packing firing of `items` reads after one
/// of `before` reads, the action a call (no allocation: the call log's
/// block was opened by the first call).
fn containment_call_after(before: u64, items: u64) -> (u64, usize) {
    let script = "CREATE RULE p, pack ON TSEQ(TSEQ+(observation('conv', o1, t1), 0 sec, 1 sec); \
                  observation('caser', o2, t2), 5 sec, 20 sec) \
                  IF true DO send_containment_msg(o2, t2)";
    let packing = |first_item: u64, items: u64, from_ms: u64| {
        let mut reads: Vec<_> = (0..items)
            .map(|i| read(0, first_item + i, from_ms + 100 * i))
            .collect();
        reads.push(read(
            1,
            9_000_000 + first_item,
            from_ms + 100 * items + 10_000,
        ));
        reads
    };
    // The measured call is the fourth, in the block the first opened.
    let mut warm_up = packing(0, 2, 0);
    warm_up.extend(packing(10, 2, 100_000));
    warm_up.extend(packing(1_000_000, before, 1_000_000));
    let measured = packing(5_000_000, items, 1_000_000 + 100 * before + 100_000);
    let (allocs, opened, rt) = firing_path_allocs(script, |_| {}, &warm_up, &measured);
    assert_eq!(opened, 0);
    (allocs, rt.procedures().log.len())
}

#[test]
fn production_frame_keeps_its_run_buffer_up_to_a_bound() {
    // Two cells (`o1`, `t1`) of 32 bytes per element: a 64 KiB buffer holds
    // 1024 elements. Below that, the next firing reuses it; above it, the
    // buffer went back with its firing and the next one allocates anew.
    for (before, fresh) in [(8, 0), (1_000, 0), (1_100, 1), (5_000, 1)] {
        let (allocs, calls) = containment_call_after(before, 8);
        assert_eq!(calls, 4);
        assert_eq!(allocs, fresh, "after a run of {before}");
    }
}
