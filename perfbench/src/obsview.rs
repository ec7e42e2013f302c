//! Read-only views of the `nss-obs` registry and flight recorder over a
//! time window. In a build without the `obs` feature every figure reads 0.

use nss_obs::registry::{HistogramSnapshot, Registry, RegistrySnapshot};

/// An open measurement window.
pub struct Window {
    start_ns: u64,
    before: RegistrySnapshot,
}

/// What the instrumented crates recorded inside one window.
pub struct WindowStats {
    delta: RegistrySnapshot,
    /// `(name, duration_ns)` of flight-recorder events inside the window.
    events: Vec<(&'static str, u64)>,
}

impl Window {
    pub fn open() -> Window {
        Window {
            before: Registry::global().snapshot(),
            start_ns: nss_obs::trace::now_ns(),
        }
    }

    pub fn close(self) -> WindowStats {
        let end_ns = nss_obs::trace::now_ns();
        let delta = Registry::global().snapshot().delta_since(&self.before);
        let events = if nss_obs::enabled() {
            nss_obs::trace::events()
                .0
                .into_iter()
                .filter(|e| e.start_ns >= self.start_ns && e.start_ns + e.dur_ns <= end_ns)
                .map(|e| (nss_obs::trace::name_of(e.name_id), e.dur_ns))
                .collect()
        } else {
            Vec::new()
        };
        WindowStats { delta, events }
    }
}

impl WindowStats {
    pub fn counter(&self, name: &str) -> u64 {
        self.delta
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.delta
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Sum of the recorded seconds in histogram `name`.
    pub fn histogram_sum(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.sum)
    }

    /// Total wall seconds of the flight-recorder events called `name`.
    pub fn event_seconds(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, d)| d as f64 * 1e-9)
            .sum()
    }
}
