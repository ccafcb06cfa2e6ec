//! What a stored row costs the heap: the bytes a table keeps live per row
//! and the allocator calls it makes per row, counted by this binary's own
//! global allocator over the paper's containment table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rfid_epc::{Epc, Gid96};
use rfid_events::Timestamp;
use rfid_store::{Database, Row, Value};

/// The system allocator, counting per thread the calls made and the bytes
/// held (frees of blocks allocated before a count began drive it down).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64) {
    // A thread may free its last blocks while its locals are going away.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + calls));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// cells with constant initialisers, so touching them never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn epc(serial: u64) -> Epc {
    Gid96::new(1, 1, serial).expect("serial fits").into()
}

const ROWS: u64 = 100_000;

/// Bytes a row of `OBJECTCONTAINMENT` may keep live, its two indexes'
/// share included: 2 EPCs (32), 2 times (16), 4 tags, a live flag and 2
/// index links (8) are 61; the object index's slot table (≈ 21: 8-byte
/// slots, at least twice the keys), the parent index's and the unfilled
/// part of the last segment are the rest. Measured: 84.8 (a row that is
/// its own `Vec` of 32-byte values in a doubling `Vec` held 193.5).
const BYTES_PER_ROW: f64 = 86.0;

#[test]
fn a_containment_row_holds_its_cells_and_little_else() {
    let mut db = Database::rfid();
    let table = db.table_mut("OBJECTCONTAINMENT").expect("provisioned");
    assert_eq!(table.indexed_columns().count(), 2);
    let held_before = LIVE.with(Cell::get);
    // Rule 4's rows: 20 items a case, packed at one time, open ended.
    let rows: Vec<Row> = (0..ROWS)
        .map(|n| {
            let at = Value::Time(Timestamp::from_millis(1_000 * (n / 20)));
            vec![epc(n).into(), epc(1_000_000 + n / 20).into(), at, Value::Uc]
        })
        .collect();
    let allocs_before = ALLOCS.with(Cell::get);
    for row in rows {
        table.insert(row).expect("fits");
    }
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let held = LIVE.with(Cell::get) - held_before;
    assert_eq!(table.len() as u64, ROWS);

    let bytes_per_row = held as f64 / ROWS as f64;
    let allocs_per_row = allocs as f64 / ROWS as f64;
    assert!(
        bytes_per_row <= BYTES_PER_ROW,
        "{bytes_per_row:.1} live bytes a row"
    );
    assert!(
        allocs_per_row < 0.01,
        "{allocs_per_row:.4} allocations a row"
    );
}

/// Bytes a one-row `OBJECTCONTAINMENT` keeps live: its first row allocates
/// a whole segment in every arena and both indexes' links, 4,096 rows of
/// 61 bytes (244 KiB), which the table's later rows then fill. Measured:
/// 250,688 (a row that is its own `Vec` held ≈ 100).
const FIRST_ROW_BYTES: i64 = 251_000;

#[test]
fn a_first_row_costs_one_segment() {
    let mut db = Database::rfid();
    let table = db.table_mut("OBJECTCONTAINMENT").expect("provisioned");
    let held_before = LIVE.with(Cell::get);
    let at = Value::Time(Timestamp::from_millis(0));
    table
        .insert(vec![epc(1).into(), epc(2).into(), at, Value::Uc])
        .expect("fits");
    let held = LIVE.with(Cell::get) - held_before;
    assert!(held <= FIRST_ROW_BYTES, "{held} live bytes for one row");
}
