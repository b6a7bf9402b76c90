//! `reproduce [fig6|fig7|fig8|table2|overhead|ablation] [--quick]
//! [--status-dump]`: the paper's §5 and our ablations from one table of
//! runs and checks, [`dcws_bench::reproduce`]. An artifact name runs that
//! artifact alone.

fn main() {
    let only = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let quick = dcws_bench::quick();
    std::process::exit(dcws_bench::reproduce::reproduce(only.as_deref(), quick));
}
