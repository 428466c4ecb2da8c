//! Cost of the greedy-closure minimal-satisfying-assignment procedure on a
//! real dependency model, under the closure-size and the natural order.

use lbr_bench::microbench::bench;
use lbr_jreduce::build_model;
use lbr_logic::{msa, VarOrder};
use lbr_workload::{generate, WorkloadConfig};

fn main() {
    let program = generate(&WorkloadConfig {
        seed: 5,
        classes: 36,
        interfaces: 9,
        plant: lbr_decompiler::BugKind::ALL.to_vec(),
        ..WorkloadConfig::default()
    });
    let model = build_model(&program).expect("valid input");
    let order = lbr_core::closure_size_order(&model.cnf);
    let natural = VarOrder::natural(model.cnf.num_vars());

    bench("msa/closure-order/greedy", || {
        msa(&model.cnf, &order).expect("satisfiable").len()
    });
    bench("msa/natural-order/greedy", || {
        msa(&model.cnf, &natural).expect("satisfiable").len()
    });
}
