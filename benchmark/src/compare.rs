//! `compare`: judge a change against its parent from two sets of
//! results files (one file per run, as written by `run --out`).
//!
//! For every (end-to-end metric, workload) pair it prints each side's
//! median and quartiles, the share of run pairs the change wins, and a
//! verdict:
//!
//! * `better` — the change wins at least 9 of 10 pairs and its median
//!   beats the parent's by more than the parent's interquartile range;
//! * `worse` — its median is worse than the parent's by more than the
//!   metric's bound (for `error_rate`: any increase);
//! * `unresolved` — either side's spread (IQR over median) exceeds the
//!   bound, unless every change run beats every parent run;
//! * `unchanged` — otherwise.

use crate::metrics::{end_to_end, Better};
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::fmt;

/// Share of pairs the change must win to count as `better`.
const WIN_SHARE: f64 = 0.9;

/// A (metric, workload) judgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule above.
    Better,
    /// A regression beyond the bound.
    Worse,
    /// Within the bound, with a spread the bound can resolve.
    Unchanged,
    /// Too noisy to say.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Orient a value so that larger is always better.
fn gain(better: Better, v: f64) -> f64 {
    match better {
        Better::Higher => v,
        Better::Lower => -v,
    }
}

/// The share of runs `(parent[i], change[i])` the change wins (ties
/// count for neither side).
#[must_use]
pub fn win_share(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| gain(better, c) > gain(better, p))
        .count();
    wins as f64 / pairs as f64
}

/// Judge one (metric, workload) pair. Both sides need at least two runs.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (p_med, c_med) = (median(parent), median(change));
    let spread = relative_spread(parent).max(relative_spread(change));
    let all_beat = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(better, c) > gain(better, p)));
    if spread > bound && !all_beat {
        return Verdict::Unresolved;
    }
    let [p_q1, _, p_q3] = quartiles(parent);
    let improves = gain(better, c_med) > gain(better, p_med);
    if improves
        && win_share(parent, change, better) >= WIN_SHARE
        && (c_med - p_med).abs() > p_q3 - p_q1
    {
        return Verdict::Better;
    }
    let worsening = (gain(better, p_med) - gain(better, c_med)) / p_med.abs();
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// `error_rate` is judged on its own terms: any increase is `worse`.
#[must_use]
pub fn error_verdict(parent: &[f64], change: &[f64]) -> Verdict {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if mean(change) > mean(parent) {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// `v` with six significant digits (whole numbers stay whole).
fn significant(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    let decimals = usize::try_from(5 - magnitude).unwrap_or(0);
    format!("{v:.decimals$}")
}

/// One results file: its `env nproc` stamp and every
/// `workload metric value unit` line.
struct Results {
    nproc: Option<String>,
    values: Vec<(String, String, f64)>,
}

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut results = Results {
        nproc: None,
        values: Vec::new(),
    };
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, ..] = fields[..] else {
            return Err(format!("{path}: malformed line {line:?}"));
        };
        if workload == "env" && metric == "nproc" {
            results.nproc = Some(value.to_string());
            continue;
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("{path}: bad value in {line:?}"))?;
        results
            .values
            .push((workload.to_string(), metric.to_string(), value));
    }
    Ok(results)
}

/// Values per (workload, metric), in file order, over a set of files.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn read_set(paths: &[String]) -> Result<(Series, Vec<Option<String>>), String> {
    let mut series = Series::new();
    let mut nprocs = Vec::new();
    for path in paths {
        let results = read_results(path)?;
        nprocs.push(results.nproc);
        for (workload, metric, value) in results.values {
            series.entry((workload, metric)).or_default().push(value);
        }
    }
    Ok((series, nprocs))
}

/// `compare --parent FILE... --change FILE...`
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut side: Option<&mut Vec<String>> = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => match side.as_mut() {
                Some(list) => list.push(file.to_string()),
                None => return Err(format!("expected --parent or --change before {file:?}")),
            },
        }
    }
    if parent.len() < 2 || change.len() < 2 {
        return Err("compare needs at least two results files per side".to_string());
    }
    let (p_series, p_nproc) = read_set(&parent)?;
    let (c_series, c_nproc) = read_set(&change)?;
    let mut stamps: Vec<&Option<String>> = p_nproc.iter().chain(&c_nproc).collect();
    stamps.dedup();
    if stamps.len() != 1 || stamps[0].is_none() {
        return Err(format!(
            "results come from different or unstamped core counts ({stamps:?}); refusing to compare"
        ));
    }

    println!(
        "{:<15} {:<22} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut any_worse = false;
    for ((workload, metric), p) in &p_series {
        let Some(c) = c_series.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (better, v) = if metric == "error_rate" {
            (Better::Lower, error_verdict(p, c))
        } else if let Some(m) = end_to_end(metric) {
            if p.len() < 2 || c.len() < 2 {
                continue;
            }
            (m.better, verdict(p, c, m.better, m.bound))
        } else {
            continue;
        };
        any_worse |= v == Verdict::Worse;
        let summary = |v: &[f64]| {
            if v.len() < 2 {
                significant(median(v))
            } else {
                let [q1, q2, q3] = quartiles(v);
                format!(
                    "{} [{}, {}]",
                    significant(q2),
                    significant(q1),
                    significant(q3)
                )
            }
        };
        let pairs = p.len().min(c.len());
        let wins = (win_share(p, c, better) * pairs as f64).round();
        println!(
            "{workload:<15} {metric:<22} {:>30} {:>30} {:>6}  {v}",
            summary(p),
            summary(c),
            format!("{wins}/{pairs}"),
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
    ];

    fn scaled(k: f64) -> Vec<f64> {
        P.iter().map(|v| v * k).collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let c: Vec<f64> = P.iter().rev().copied().collect();
        assert_eq!(verdict(&P, &c, Better::Higher, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&P, &c, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_is_better_in_either_direction() {
        assert_eq!(
            verdict(&P, &scaled(1.05), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&P, &scaled(0.95), Better::Lower, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn small_shift_is_not_a_gain() {
        // Wins every pair, but the gap is inside the parent's IQR.
        let c: Vec<f64> = P.iter().map(|v| v + 0.05).collect();
        assert_eq!(win_share(&P, &c, Better::Higher), 1.0);
        assert_eq!(verdict(&P, &c, Better::Higher, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn loss_beyond_the_bound_is_worse() {
        assert_eq!(
            verdict(&P, &scaled(0.85), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&P, &scaled(1.15), Better::Lower, 0.1),
            Verdict::Worse
        );
        // A loss inside the bound is not.
        assert_eq!(
            verdict(&P, &scaled(0.95), Better::Higher, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noisy_pairs_are_unresolved_unless_every_run_wins() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&P, &noisy, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &P, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Every change run beats every (noisy) parent run: judged anyway.
        let high: Vec<f64> = noisy.iter().map(|v| v + 200.0).collect();
        assert_eq!(verdict(&noisy, &high, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&high, &noisy, Better::Lower, 0.1), Verdict::Better);
    }

    #[test]
    fn win_share_counts_ties_for_neither_side() {
        assert_eq!(win_share(&[1.0, 2.0], &[1.0, 3.0], Better::Higher), 0.5);
        assert_eq!(win_share(&[1.0, 2.0], &[1.0, 3.0], Better::Lower), 0.0);
        assert_eq!(win_share(&[], &[], Better::Lower), 0.0);
    }

    #[test]
    fn any_error_rate_increase_is_worse() {
        assert_eq!(error_verdict(&[0.0, 0.0], &[0.0, 0.001]), Verdict::Worse);
        assert_eq!(error_verdict(&[0.01, 0.0], &[0.0, 0.0]), Verdict::Unchanged);
        assert_eq!(error_verdict(&[0.0, 0.0], &[0.0, 0.0]), Verdict::Unchanged);
    }

    #[test]
    fn compare_refuses_mixed_core_counts() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, nproc: u32, v: f64| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!("# rustc x\nenv nproc {nproc} count\nw reports_per_s {v} 1/s\n"),
            )
            .unwrap();
            path.to_string_lossy().into_owned()
        };
        let args = |parent: [String; 2], change: [String; 2]| -> Vec<String> {
            std::iter::once("--parent".to_string())
                .chain(parent)
                .chain(std::iter::once("--change".to_string()))
                .chain(change)
                .collect()
        };
        let same = args(
            [file("a", 2, 100.0), file("b", 2, 101.0)],
            [file("c", 2, 100.5), file("d", 2, 99.5)],
        );
        assert_eq!(main(&same), Ok(true));
        let mixed = args(
            [file("a", 2, 100.0), file("b", 2, 101.0)],
            [file("c", 4, 100.5), file("d", 4, 99.5)],
        );
        assert!(main(&mixed).unwrap_err().contains("refusing"));
        let worse = args(
            [file("a", 2, 100.0), file("b", 2, 101.0)],
            [file("c", 2, 50.0), file("d", 2, 51.0)],
        );
        assert_eq!(main(&worse), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
