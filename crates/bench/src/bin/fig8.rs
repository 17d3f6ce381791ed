//! Figure 8: the best general-purpose hyperblock priority function found,
//! by the same deterministic DSS training as `fig6`.

use metaopt::experiment::train_general;
use metaopt_bench::{harness_params, header};
use metaopt_gp::expr::display_named;

fn main() {
    header(
        "Figure 8",
        "Best evolved general-purpose hyperblock priority function",
    );
    let cfg = metaopt::study::hyperblock();
    let winner = train_general(
        &cfg,
        &metaopt_suite::hyperblock_training_set(),
        &harness_params(),
    )
    .best;
    println!("raw:        {}", display_named(&winner, &cfg.features));
    let simplified = metaopt_gp::simplify::simplify(&winner);
    println!("simplified: {}", display_named(&simplified, &cfg.features));
    println!(
        "\nsize: {} -> {} nodes after intron removal (paper §5.4.3)",
        winner.size(),
        simplified.size()
    );
    println!("(compare with the paper's Eq. 1 seed:)");
    println!("{}", display_named(&cfg.baseline_seed, &cfg.features));
}
