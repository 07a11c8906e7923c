//! Sparse training end to end: train the same network dense, with
//! unstructured sparsity, and with TBS (paper §III-B / Fig. 18), then
//! compare losses and held-out accuracy.
//!
//! Run with: `cargo run --release --example sparse_training`

#![allow(
    clippy::unwrap_used,
    reason = "examples favour brevity over error handling"
)]

use tbstc::prelude::*;
use tbstc::sparsity::PatternKind;

fn main() {
    // A capacity-bound teacher-student task: the labels come from a frozen
    // network with realistically structured weights, so pruning genuinely
    // costs accuracy (a plain Gaussian-mixture task saturates at 100%).
    let data = Dataset::teacher_student(128, 12, 96, 2048, 1024, 2024);
    println!(
        "Task: {}-class teacher-student, {} features, {} train / {} test samples\n",
        data.classes,
        data.features(),
        data.train_len(),
        data.test_len()
    );

    let sparsity = 0.75;
    println!(
        "Training the same MLP under three regimes (target sparsity {:.0}%):",
        sparsity * 100.0
    );
    let mut rows = Vec::new();
    for (kind, s) in [
        (PatternKind::Dense, 0.0),
        (PatternKind::Unstructured, sparsity),
        (PatternKind::Tbs, sparsity),
    ] {
        let mut cfg = TrainConfig::new(&data, kind, s, 1);
        cfg.net.hidden = vec![96];
        cfg.epochs = 25;
        let rec = SparseTrainer::new(cfg).train(&data);
        println!(
            "  {:<6} final loss {:.4}  final sparsity {:>5.1}%  test accuracy {:.2}%",
            kind.to_string(),
            rec.losses.last().unwrap(),
            rec.sparsities.last().unwrap() * 100.0,
            rec.test_accuracy * 100.0
        );
        rows.push((kind, rec));
    }

    println!("\nLoss curves (every 5th epoch):");
    print!("  epoch ");
    for e in (0..rows[0].1.losses.len()).step_by(5) {
        print!("{e:>8}");
    }
    println!();
    for (kind, rec) in &rows {
        print!("  {:<6}", kind.to_string());
        for e in (0..rec.losses.len()).step_by(5) {
            print!("{:>8.4}", rec.losses[e]);
        }
        println!();
    }

    let dense_acc = rows[0].1.test_accuracy;
    let tbs_acc = rows[2].1.test_accuracy;
    println!(
        "\nTBS reaches within {:.2} points of dense accuracy at {:.0}% sparsity \
         (paper Fig. 18: 'almost the same loss').",
        (dense_acc - tbs_acc) * 100.0,
        sparsity * 100.0
    );
}
