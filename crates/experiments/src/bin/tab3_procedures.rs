//! Prints the per-procedure computation costs charged in the emulation
//! (paper Tab. 3). The `tab3_*` rows of `bench_smoke` measure the real
//! cost of this implementation's aggregation procedures.
fn main() {
    spyker_experiments::suite::tab3_procedure_costs();
}
