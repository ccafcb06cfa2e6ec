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
use rfid_rules::{parse_script, Procedures};
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
fn scalar_firing_with_one_call_allocates_twice() {
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
    const FIRINGS: u64 = 1_000;
    procs.log.reserve(FIRINGS as usize);

    let (allocs, ()) = allocs_in(|| {
        for _ in 0..FIRINGS {
            let bound = bind(&rule.event, &inst, &catalog).expect("binds");
            for action in &rule.actions {
                execute(action, &bound, &inst, &catalog, &mut db, &mut procs).expect("runs");
            }
        }
    });
    assert_eq!(procs.log.len() as u64, FIRINGS);
    // The argument `Vec` and the logged procedure name; binding three
    // variables (four sites) costs nothing.
    assert_eq!(allocs, 2 * FIRINGS);
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
        // Per item: the stored row. The rest is growth of the table's and
        // its two indexes' storage, which doubles: a constant and a small
        // share per item.
        assert!(
            execute_full <= 16 + items + items / 4,
            "{execute_full} allocations for {items} items"
        );
    }
}
