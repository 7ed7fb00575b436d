//! Keeps the oracle suite and its documentation in lockstep: the first
//! column of the DESIGN.md §11.1 invariant table names `default_suite()`'s
//! oracles, in suite order, and nothing else. Violation reports and repro
//! files carry those names, so a row that spells one differently sends a
//! reader to an oracle that does not exist.

use spyker_simtest::default_suite;

#[test]
fn design_doc_table_matches_the_suite() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let doc = std::fs::read_to_string(path).expect("read DESIGN.md");
    let section = doc
        .split("### 11.1 Invariant catalog")
        .nth(1)
        .expect("DESIGN.md lacks the §11.1 invariant catalog");
    // The invariant table is the section's first table.
    let rows = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| l.starts_with("| `"));
    let documented: Vec<&str> = rows
        .map(|r| r.split('`').nth(1).expect("a backquoted name"))
        .collect();
    let suite: Vec<&str> = default_suite().iter().map(|o| o.name()).collect();
    assert_eq!(
        documented, suite,
        "DESIGN.md §11.1's invariant table and default_suite() disagree"
    );
}
