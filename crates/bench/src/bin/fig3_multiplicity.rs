//! Regenerates **Figure 3**: the distribution of the number of particles
//! per event for the three particle types the queries use.

use hepbench_bench::{dataset, dataset_spec};
use hepbench_core::complexity::multiplicity_distribution;

fn main() {
    let (events, _) = dataset(dataset_spec(65_536, None));
    let max = 40;
    let jets = multiplicity_distribution(&events, |e| e.jets.len(), max);
    let muons = multiplicity_distribution(&events, |e| e.muons.len(), max);
    let electrons = multiplicity_distribution(&events, |e| e.electrons.len(), max);
    println!("Figure 3 — fraction of events with exactly n particles");
    println!();
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "n", "electrons", "muons", "jets"
    );
    for n in 0..=max {
        if electrons[n] == 0.0 && muons[n] == 0.0 && jets[n] == 0.0 {
            continue;
        }
        println!(
            "{n:>4} {:>12.5} {:>12.5} {:>12.5}",
            electrons[n], muons[n], jets[n]
        );
    }
    let mean = |d: &[f64]| -> f64 { d.iter().enumerate().map(|(i, p)| i as f64 * p).sum() };
    println!();
    println!(
        "means: electrons {:.2}, muons {:.2}, jets {:.2}",
        mean(&electrons),
        mean(&muons),
        mean(&jets)
    );
    println!();
    println!("shapes to check against the paper (Figure 3): electrons in low single");
    println!("digits; muons more frequent with a longer tail; a significant fraction");
    println!("of events with a dozen or more jets.");
}
