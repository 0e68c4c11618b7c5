//! The claims ledger: what each figure's numbers must show, stated once as
//! data. A [`Claim`] holds a family of sides — written as a loop where a
//! figure has many rows, "every R- row at every point" — to one band, and
//! [`judge`] evaluates every claim on `BENCH_<name>.json` summaries and
//! renders the ledger README quotes.

use crate::{BenchSummary, FigureSpec};

/// A comparison operator, a side `⋈` a constant: its symbol and its test.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op(&'static str, fn(&f64, &f64) -> bool);

impl Op {
    /// `<`
    pub(crate) const LT: Op = Op("<", f64::lt);
    /// `≤`
    pub(crate) const LE: Op = Op("≤", f64::le);
    /// `=`, exact: the values it compares are counters
    pub(crate) const EQ: Op = Op("=", f64::eq);
    /// `≥`
    pub(crate) const GE: Op = Op("≥", f64::ge);
    /// `>`
    pub(crate) const GT: Op = Op(">", f64::gt);

    fn holds(self, value: f64, bound: f64) -> bool {
        (self.1)(&value, &bound)
    }
}

/// The bounds every side of a claim must meet: one for an ordering, two for
/// a band.
pub(crate) type Band = &'static [(Op, f64)];

/// One side of a comparison.
#[derive(Debug, Clone)]
pub(crate) enum Term {
    /// The metric `(figure, name)`: `name` in `figure`'s summary, so one
    /// figure can cite another's.
    Metric(&'static str, String),
    /// The ratio of two sides.
    Ratio(Box<Term>, Box<Term>),
}

/// The metric `name` of `figure`'s summary.
pub(crate) fn metric(figure: &'static str, name: impl Into<String>) -> Term {
    Term::Metric(figure, name.into())
}

/// The ratio `num / den`.
pub(crate) fn ratio(num: Term, den: Term) -> Term {
    Term::Ratio(Box::new(num), Box::new(den))
}

impl Term {
    fn value(&self, summaries: &[BenchSummary]) -> Result<f64, String> {
        match self {
            Term::Metric(figure, name) => summaries
                .iter()
                .find(|summary| summary.bench == format!("fig_{figure}"))
                .and_then(|summary| summary.metric(name))
                .ok_or(format!("metric {figure}/{name} is missing")),
            Term::Ratio(num, den) => Ok(num.value(summaries)? / den.value(summaries)?),
        }
    }

    fn render(&self) -> String {
        match self {
            Term::Metric(figure, name) => format!("{figure}/`{name}`"),
            Term::Ratio(num, den) => format!("{} / {}", num.render(), den.render()),
        }
    }
}

/// One qualitative result a figure must show: every side within the band.
#[derive(Debug, Default)]
pub(crate) struct Claim {
    /// What the sides measure, in a phrase.
    description: &'static str,
    /// Where the claim comes from: a paper figure or section, "beyond the
    /// paper", or the model's own calibration.
    source: &'static str,
    /// The family's sides.
    sides: Vec<Term>,
    /// The bounds each side must meet.
    band: Band,
}

impl Claim {
    /// A claim from `source` about what `description` names; it checks
    /// nothing until [`Claim::check`] gives it its family.
    pub(crate) fn new(description: &'static str, source: &'static str) -> Self {
        Claim {
            description,
            source,
            ..Claim::default()
        }
    }

    /// Holds each of `sides` to every bound of `band`.
    pub(crate) fn check(mut self, sides: impl IntoIterator<Item = Term>, band: Band) -> Self {
        (self.sides, self.band) = (sides.into_iter().collect(), band);
        self
    }
}

/// Evaluates every claim of `figures` over `summaries`. Returns the ledger —
/// a markdown table, one row per claim: its figure and run size, what it
/// measures, its source, its band and the family's measured min–max — and
/// one line per failure: a side outside its band, named with its figure,
/// metric, value and the band; a missing metric; a claim with no side; or a
/// figure with no claim.
pub fn judge(figures: &[FigureSpec], summaries: &[BenchSummary]) -> (String, Vec<String>) {
    let mut markdown = String::from(
        "| figure | run size | claim | source | band | measured |\n|---|---|---|---|---|---|\n",
    );
    let mut failures = Vec::new();
    for figure in figures {
        let claims = (figure.claims)();
        if claims.is_empty() {
            failures.push(format!("{}: states no claim", figure.name));
        }
        for claim in claims {
            let bounds = claim
                .band
                .iter()
                .map(|(op, bound)| format!("{} {}", op.0, number(*bound)));
            let band = bounds.collect::<Vec<_>>().join(", ");
            let fail = |why| format!("{}: {why} ({})", figure.name, claim.description);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for side in &claim.sides {
                match side.value(summaries) {
                    Err(missing) => failures.push(fail(missing)),
                    Ok(value) => {
                        (min, max) = (min.min(value), max.max(value));
                        if !claim.band.iter().all(|&(op, bound)| op.holds(value, bound)) {
                            let side = side.render();
                            failures
                                .push(fail(format!("{side} = {} breaks {band}", number(value))));
                        }
                    }
                }
            }
            if claim.sides.is_empty() {
                failures.push(fail("no side to check".into()));
            }
            let measured = match (min, max) {
                _ if min > max => "missing".to_string(),
                _ if min == max => number(min),
                _ => format!("{}–{}", number(min), number(max)),
            };
            let size = match figure.smoke_ops {
                0 => "—".to_string(),
                ops => ops.to_string(),
            };
            markdown += &format!(
                "| {} | {size} | {} | {} | {band} | {measured} |\n",
                figure.name, claim.description, claim.source
            );
        }
    }
    (markdown, failures)
}

/// Four significant digits, trailing zeros dropped; whole numbers from
/// 1 000 up.
fn number(value: f64) -> String {
    if value.abs() >= 1_000.0 || value == 0.0 {
        return format!("{value:.0}");
    }
    let decimals = (3 - value.abs().log10().floor() as i32) as usize;
    let text = format!("{value:.decimals$}");
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batching figure's claims judged on its committed baseline, with
    /// `edit` applied.
    fn judge_batching(edit: impl FnOnce(&mut BenchSummary)) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_batching.json");
        let mut summary: BenchSummary =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        edit(&mut summary);
        let spec = FigureSpec::find("batching").unwrap();
        judge(std::slice::from_ref(spec), &[summary]).1
    }

    #[test]
    fn a_perturbed_value_fails_its_claim_naming_figure_metric_value_and_band() {
        assert_eq!(judge_batching(|_| ()), Vec::<String>::new());
        let failures = judge_batching(|summary| {
            let batch_1 = summary.metric("r_raft_conf_batch_1_ops_per_sec").unwrap();
            let mut metrics = summary.metrics.iter_mut();
            let batch_16 = metrics.find(|m| m.name == "r_raft_conf_batch_16_ops_per_sec");
            batch_16.unwrap().value = 1.5 * batch_1;
        });
        let expected = "batching: batching/`r_raft_conf_batch_16_ops_per_sec` / \
                        batching/`r_raft_conf_batch_1_ops_per_sec` = 1.5 breaks ≥ 2";
        assert!(
            failures.len() == 1 && failures[0].starts_with(expected),
            "{failures:?}"
        );
    }

    #[test]
    fn a_missing_metric_fails() {
        let failures = judge_batching(|summary| {
            summary
                .metrics
                .retain(|m| m.name != "r_raft_conf_batch_64_ops_per_sec");
        });
        let missing = "batching: metric batching/r_raft_conf_batch_64_ops_per_sec is missing";
        assert!(
            failures.len() == 1 && failures[0].starts_with(missing),
            "{failures:?}"
        );
    }

    #[test]
    fn a_strict_bound_fails_on_equality() {
        assert!(!Op::LT.holds(2.0, 2.0) && !Op::GT.holds(2.0, 2.0));
        assert!(Op::LE.holds(2.0, 2.0) && Op::EQ.holds(2.0, 2.0) && Op::GE.holds(2.0, 2.0));
    }
}
