//! Output checks. A run's simulated output is deterministic in its seed, so
//! the benchmark pins the output digest of each workload per seed
//! (`pins.txt`, regenerated with `perfbench pin`). A seed outside the table
//! cannot be pinned ahead of time; the measuring process then requires every
//! repetition of the run to produce the same digest instead.
//!
//! Re-pin only for a change that deliberately alters simulated behaviour,
//! and say so where the change is described.

use crate::cli::Workload;

const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `workload` at `seed`, if the table has one.
pub fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    pinned_in(PINS, workload, seed)
}

fn pinned_in(table: &str, workload: Workload, seed: u64) -> Option<u64> {
    table
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload.name() && s.parse() == Ok(seed))
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
}

/// Whether the pinned table had an entry for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    Matched,
    Unpinned,
}

/// Compare a run's digest with its pin.
pub fn check_digest(workload: Workload, seed: u64, digest: u64) -> Result<Pin, String> {
    match pinned(workload, seed) {
        Some(want) if want == digest => Ok(Pin::Matched),
        Some(want) => Err(format!(
            "{} seed {seed}: output digest {digest:016x} != pinned {want:016x}",
            workload.name()
        )),
        None => Ok(Pin::Unpinned),
    }
}

/// One line of `pins.txt`.
pub fn pin_line(workload: Workload, seed: u64, digest: u64) -> String {
    format!("{} {seed} {digest:016x}", workload.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup() {
        let table = "# comment\nrun-serial 1 00000000000000ff\nsessions-1m 1 0000000000000001\n";
        assert_eq!(pinned_in(table, Workload::RunSerial, 1), Some(255));
        assert_eq!(pinned_in(table, Workload::Sessions1m, 1), Some(1));
        assert_eq!(pinned_in(table, Workload::RunSerial, 2), None);
        assert_eq!(pinned_in(table, Workload::SweepObserved, 1), None);
    }

    #[test]
    fn every_workload_has_pins() {
        for w in Workload::ALL {
            assert!(pinned(w, 1).is_some(), "{} seed 1 pinned", w.name());
        }
        assert_eq!(
            pin_line(Workload::RunSerial, 3, 0xab),
            "run-serial 3 00000000000000ab"
        );
    }
}
