//! Ablations: reed-threshold sensitivity, walk strategy, rule order.

use criterion::{criterion_group, criterion_main, Criterion};
use schevo_bench::{paper_study, print_block, small_universe};
use schevo_pipeline::ablation::{
    reed_threshold_sensitivity, rule_order_comparison, walk_strategy_comparison,
};

fn bench(c: &mut Criterion) {
    let small = small_universe();
    let points =
        reed_threshold_sensitivity(small, &[6, 10, 14, 20, 30]).expect("clean corpus");
    let mut body = String::from("threshold  counts (Frozen, AF, FSF, Mod, FSL, Act)\n");
    for p in &points {
        body.push_str(&format!("{:>9}  {:?}\n", p.threshold, p.counts));
    }
    let walk = walk_strategy_comparison(small);
    body.push_str(&format!("\nwalk comparison: {walk:?}\n"));
    let rule = rule_order_comparison(&paper_study().profiles);
    body.push_str(&format!("rule-order comparison (paper scale): {rule:?}\n"));
    print_block("Ablations", &body);

    c.bench_function("ablation/rule_order_195", |b| {
        b.iter(|| rule_order_comparison(&paper_study().profiles).changed)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
