//! The repository benchmark: three workloads over the public API of
//! `nss-model`, `nss-sim`, `nss-analysis`, `nss-serve` and `nss-obs`.
//!
//! * [`flood`] — `flood-1m`, CAM flooding on a ≈1.01M-node field.
//! * [`fig8`] — `fig8-mc`, the paper's Fig. 8 Monte-Carlo protocol.
//! * [`serve`] — `serve-zipf`, a closed-loop Zipf load on the query server.
//!
//! An untraced run reports the end-to-end metrics of [`report::E2E`]; a
//! traced run (built with `--features obs`) records spans around the calls
//! into each layer and reports [`report::LAYERS`].

#![forbid(unsafe_code)]

pub mod fig8;
pub mod flood;
pub mod obsview;
pub mod report;
pub mod serve;
pub mod spans;

use nss_sim::trace::SimTrace;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: every generated input is a pure function of it.
    pub seed: u64,
    /// Measured time; each workload runs whole operations until it is
    /// spent, and at least a fixed minimum of them.
    pub seconds: f64,
    /// Record spans (meaningful in a build with the `obs` feature).
    pub traced: bool,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["flood-1m", "fig8-mc", "serve-zipf"];

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, args: &RunArgs, log: &mut spans::SpanLog) -> Option<report::Outcome> {
    match workload {
        "flood-1m" => Some(flood::run(args, log)),
        "fig8-mc" => Some(fig8::run(args, log)),
        "serve-zipf" => Some(serve::run(args, log)),
        _ => None,
    }
}

/// Simulated statistics summed over a fixed prefix of a workload's traces.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Digest {
    pub broadcasts: u64,
    pub deliveries: u64,
    pub collisions: u64,
    pub phases: u64,
    pub sinr_rejects: u64,
    pub losses: u64,
}

impl Digest {
    pub fn add(&mut self, t: &SimTrace) {
        self.broadcasts += t.total_broadcasts();
        self.deliveries += t.total_deliveries();
        self.collisions += t.total_collisions();
        self.phases += t.phases() as u64;
        self.sinr_rejects += t.total_sinr_rejects();
        self.losses += t.total_losses();
    }

    pub fn write(&self, v: &mut report::Values) {
        v.set("sim.broadcasts", self.broadcasts as f64);
        v.set("sim.deliveries", self.deliveries as f64);
        v.set("sim.collisions", self.collisions as f64);
        v.set("sim.phases", self.phases as f64);
        v.set("sim.sinr_rejects", self.sinr_rejects as f64);
        v.set("sim.losses", self.losses as f64);
        let attempts = self.deliveries + self.collisions + self.sinr_rejects + self.losses;
        if attempts > 0 {
            v.set(
                "sim.delivery_ratio",
                self.deliveries as f64 / attempts as f64,
            );
        }
    }
}
