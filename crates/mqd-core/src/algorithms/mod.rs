//! The MQDP solvers of Section 4: exact (OPT, brute force) and approximate
//! (GreedySC, Scan, Scan+).

pub mod brute;
pub mod greedy_sc;
pub mod opt;
pub mod scan;

pub use brute::solve_brute;
pub use greedy_sc::{
    complete_cover, solve_greedy_sc, solve_greedy_sc_naive, solve_greedy_sc_scan_max,
};
pub use opt::{solve_opt, OptConfig};
pub use scan::{solve_scan, solve_scan_cover, solve_scan_plus, LabelOrder};
