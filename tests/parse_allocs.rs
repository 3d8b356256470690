//! Heap allocations of the DDL front end, held under a budget.
//!
//! Names and type names travel from token to `Table` as inline `Text`, type
//! parameters are inline and table options are a token range, so what a
//! parse allocates is per statement (its table, its attribute and index
//! vectors, the arena's pools), not per name. The collection funnel's
//! CREATE TABLE check, `declares_tables`, lowers each table to its name
//! alone, so it allocates per statement too, and fewer.
//!
//! On the analyzed candidates of a small universe (divisor 4: 47
//! histories, about 2,000 freshly parsed statements), with a thread-local
//! counting allocator, at seeds 2019 and 7:
//!
//! - `HistoryParser` over every history, oldest version first, makes 12.7
//!   and 12.3 allocations per freshly parsed statement (one not reused
//!   from the previous version). With a `String` per name, a `Vec` per
//!   type's parameters and a `String` per table option it made 42.2 and
//!   46.2.
//! - `declares_tables` over every history's first version makes 87.5 and
//!   84.6 allocations per check, about half of them the tokens and the
//!   arena's pools. `parse_schema` and an emptiness test made 948 and 924.
//!
//! The bounds are those figures with headroom. Every schema is also held
//! equal to `parse_schema`'s, so the budget is not met by parsing less.

use schevo::corpus::universe::{generate, UniverseConfig};
use schevo::ddl::{declares_tables, parse_schema, HistoryParser};
use schevo::pipeline::funnel::run_funnel;
use schevo::vcs::history::WalkStrategy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations this thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Most allocations per freshly parsed statement in `HistoryParser`.
const PER_FRESH_STATEMENT: f64 = 16.0;
/// Most allocations per `declares_tables` check of a first version.
const PER_CHECK: f64 = 110.0;

/// Every analyzed candidate's version texts, oldest first.
fn histories(seed: u64) -> Vec<Vec<String>> {
    let universe = generate(UniverseConfig::small(seed, 4));
    let funnel = run_funnel(&universe, WalkStrategy::FirstParent);
    funnel
        .analyzed
        .iter()
        .map(|c| {
            c.versions
                .iter()
                .map(|v| v.content.as_str().to_owned())
                .collect()
        })
        .collect()
}

#[test]
fn history_parsing_and_the_create_table_check_stay_in_budget() {
    for seed in [2019, 7] {
        let histories = histories(seed);
        assert!(histories.len() >= 10, "seed {seed}: too few histories");

        let (mut parse_allocs, mut fresh) = (0u64, 0u64);
        for history in &histories {
            let mut parser = HistoryParser::new();
            for sql in history {
                let before = allocations();
                let parsed = parser.parse(sql);
                parse_allocs += allocations() - before;
                assert_eq!(
                    parsed,
                    parse_schema(sql),
                    "seed {seed}: HistoryParser diverged"
                );
            }
            fresh += parser.statements() - parser.reused();
        }
        let per_statement = parse_allocs as f64 / fresh as f64;
        assert!(fresh > 1_000, "seed {seed}: only {fresh} fresh statements");
        assert!(
            per_statement <= PER_FRESH_STATEMENT,
            "seed {seed}: {per_statement:.1} allocations per fresh statement \
             ({parse_allocs} over {fresh}), budget {PER_FRESH_STATEMENT}"
        );

        let (mut check_allocs, mut checks) = (0u64, 0u64);
        for first in histories.iter().filter_map(|h| h.first()) {
            let expected = parse_schema(first).map(|s| !s.is_empty()).unwrap_or(false);
            let before = allocations();
            let declared = declares_tables(first);
            check_allocs += allocations() - before;
            checks += 1;
            assert_eq!(declared, expected, "seed {seed}: the check diverged");
        }
        let per_check = check_allocs as f64 / checks as f64;
        assert!(
            per_check <= PER_CHECK,
            "seed {seed}: {per_check:.1} allocations per check \
             ({check_allocs} over {checks}), budget {PER_CHECK}"
        );
    }
}
