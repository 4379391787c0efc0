//! Measure the same-run timing gates (see `crowder_bench::gates`) on
//! the Restaurant corpus, print each row's measured ratio next to its
//! bound, and exit non-zero if any row breaches its bound. Takes no
//! arguments.

use crowder_bench::gates;

fn main() {
    let table = gates::measure(&crowder_bench::harness::restaurant_full());
    println!("{:<28} {:>10} {:>8}", "gate", "measured", "bound");
    for g in &table {
        let verdict = if g.holds() { "ok" } else { "BREACH" };
        println!(
            "{:<28} {:>10.5} {:>8} {verdict}",
            g.name, g.measured, g.bound
        );
    }
    if let Err(breached) = gates::check(&table) {
        eprintln!("error: {breached}");
        std::process::exit(1);
    }
}
