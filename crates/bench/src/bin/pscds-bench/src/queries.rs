//! `query_many`: compile every catalog once, then answer a seeded list
//! of conditional, point and top-k queries from the compiled circuits.
//! Each operation is a `CompiledCollection::get_or_compile` hit plus one
//! query; the worker runs single-threaded.

use crate::check::{render_rows, Oracle};
use crate::gen::{self, Catalog, Rng};
use crate::metrics::Outcome;
use crate::trace::{traced_op, Tracer};
use crate::worker::{self, read, read_catalogs, write, write_catalogs, Results};
use crate::Workload;
use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::{
    analyze_circuit, analyze_circuit_conditional, analyze_circuit_topk, CircuitConfig,
    CompiledCollection,
};
use pscds_core::textfmt::parse_collection;
use pscds_core::{Budget, CoreError};
use pscds_numeric::Rational;
use pscds_relational::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Queries per cycle for each unit of a catalog's [`query_weight`]: 60
/// conditional, 25 point and 15 top-k. A run repeats whole cycles.
const PER_WEIGHT: [(Kind, usize); 3] =
    [(Kind::Conditional, 60), (Kind::Point, 25), (Kind::TopK, 15)];
/// Evidence tuples per catalog, each from its own signature class.
const EVIDENCE: usize = 3;
/// The `k` of top-k queries.
const TOP_K: usize = 5;

/// One operation: a compiled-circuit lookup, then a query.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    Conditional {
        catalog: usize,
        tuple: Value,
        given: Value,
    },
    Point {
        catalog: usize,
        tuple: Value,
    },
    TopK {
        catalog: usize,
    },
}

impl Query {
    fn render(&self) -> String {
        match self {
            Query::Conditional {
                catalog,
                tuple,
                given,
            } => format!("cond {catalog} {tuple} {given}"),
            Query::Point { catalog, tuple } => format!("point {catalog} {tuple}"),
            Query::TopK { catalog } => format!("topk {catalog}"),
        }
    }

    fn parse(line: &str) -> Result<Query, String> {
        let bad = || format!("bad query {line:?}");
        let parts: Vec<&str> = line.split(' ').collect();
        let catalog = parts.get(1).and_then(|p| p.parse().ok()).ok_or_else(bad);
        let value = |i: usize| parts.get(i).map(|s| Value::sym(s)).ok_or_else(bad);
        match (parts[0], parts.len()) {
            ("cond", 4) => Ok(Query::Conditional {
                catalog: catalog?,
                tuple: value(2)?,
                given: value(3)?,
            }),
            ("point", 3) => Ok(Query::Point {
                catalog: catalog?,
                tuple: value(2)?,
            }),
            ("topk", 2) => Ok(Query::TopK { catalog: catalog? }),
            _ => Err(bad()),
        }
    }

    fn catalog(&self) -> usize {
        match *self {
            Query::Conditional { catalog, .. }
            | Query::Point { catalog, .. }
            | Query::TopK { catalog } => catalog,
        }
    }
}

/// The `query_many` catalogs: every `count_exact` catalog but r=64.
fn query_catalogs(seed: u64) -> Vec<Catalog> {
    gen::count_catalogs(seed)
        .into_iter()
        .filter(|c| c.name != "scaled64")
        .collect()
}

/// Units of the query mix per catalog: scaled r=32 three, r=48 two, the
/// others one. The median op then lands among r=32's point and top-k
/// queries and p90 among r=48's conditionals, inside a mode rather than
/// between two.
fn query_weight(catalog: &Catalog) -> usize {
    match catalog.name.as_str() {
        "scaled32" => 3,
        "scaled48" => 2,
        _ => 1,
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Conditional,
    Point,
    TopK,
}

/// The seeded query list: for each catalog, [`PER_WEIGHT`] queries per
/// unit of its [`query_weight`] — 60% conditional on one evidence tuple,
/// 25% point, 15% top-5 — over tuples drawn uniformly, in a seeded
/// order. The mix is exact, so only the drawn tuples differ between
/// seeds. The evidence is one tuple of positive confidence from each of
/// [`EVIDENCE`] signature classes, taken in turn, so every conditioning
/// event is possible and a conditional's cost, which depends on the
/// evidence's class, mixes the same way on every seed.
fn queries(seed: u64, catalogs: &[Catalog], oracles: &[Oracle]) -> Vec<Query> {
    let mut rng = Rng::new(seed, "query_many");
    let mut list = Vec::new();
    for (catalog, (c, o)) in catalogs.iter().zip(oracles).enumerate() {
        let named: Vec<Value> = o.identity.all_tuples().into_iter().map(|t| t[0]).collect();
        let mut classes: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
        for &v in named.iter().filter(|&&v| !o.confidence(&[v]).is_zero()) {
            let class = classes.entry(o.identity.signature_of(&[v])).or_default();
            class.push(v);
        }
        let mut classes: Vec<Vec<Value>> = classes.into_values().collect();
        assert!(
            !classes.is_empty(),
            "a consistent catalog has a possible tuple"
        );
        rng.shuffle(&mut classes);
        let evidence: Vec<Value> = classes
            .iter()
            .take(EVIDENCE)
            .map(|members| members[rng.below(members.len())])
            .collect();
        for (kind, count) in PER_WEIGHT {
            for i in 0..count * query_weight(c) {
                let tuple = named[rng.below(named.len())];
                list.push(match kind {
                    Kind::Conditional => Query::Conditional {
                        catalog,
                        tuple,
                        given: evidence[i % evidence.len()],
                    },
                    Kind::Point => Query::Point { catalog, tuple },
                    Kind::TopK => Query::TopK { catalog },
                });
            }
        }
    }
    rng.shuffle(&mut list);
    list
}

/// The oracle's answers to the query list: the DFS analysis of each
/// catalog, its joint confidences for conditionals (memoized per class
/// pair), each answer rendered once.
struct Expected {
    list: Vec<Query>,
    oracles: Vec<Oracle>,
    joint: HashMap<(usize, usize, usize), Rational>,
    answers: HashMap<usize, String>,
}

impl Expected {
    /// The expected answer of operation `op`.
    fn answer(&mut self, op: &str) -> Option<&str> {
        let i = op.parse::<usize>().ok()? % self.list.len();
        if !self.answers.contains_key(&i) {
            let rows = self.rows(&self.list[i].clone());
            self.answers.insert(i, render_rows(&rows));
        }
        self.answers.get(&i).map(String::as_str)
    }

    fn rows(&mut self, query: &Query) -> Vec<(Value, Rational)> {
        let class = |o: &Oracle, v: Value| {
            o.analysis
                .signature_analysis()
                .class_of(&[v], o.identity.signature_of(&[v]))
                .expect("named tuple")
        };
        match *query {
            Query::Point { catalog, tuple } => {
                vec![(tuple, self.oracles[catalog].confidence(&[tuple]))]
            }
            Query::Conditional {
                catalog,
                tuple,
                given,
            } => {
                let o = &self.oracles[catalog];
                let conf = if tuple == given {
                    Rational::one()
                } else {
                    let key = (catalog, class(o, tuple), class(o, given));
                    let both = self.joint.entry(key).or_insert_with(|| {
                        o.analysis
                            .joint_class_confidence(key.1, key.2)
                            .expect("consistent catalog")
                    });
                    both.div(&o.confidence(&[given]))
                };
                vec![(tuple, conf)]
            }
            Query::TopK { catalog } => {
                let o = &self.oracles[catalog];
                let mut rows: Vec<(Value, Rational)> = o
                    .identity
                    .all_tuples()
                    .into_iter()
                    .map(|t| (t[0], o.confidence(&t)))
                    .collect();
                rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                rows.truncate(TOP_K);
                rows
            }
        }
    }
}

/// Writes the inputs over `catalogs`; returns their oracle.
fn prepare(catalogs: &[Catalog], seed: u64, dir: &Path) -> Expected {
    let oracles: Vec<Oracle> = catalogs.iter().map(Oracle::new).collect();
    let list = queries(seed, catalogs, &oracles);
    write_catalogs(dir, catalogs.iter());
    let lines: Vec<String> = list.iter().map(Query::render).collect();
    write(dir, "queries.txt", &lines.join("\n"));
    Expected {
        list,
        oracles,
        joint: HashMap::new(),
        answers: HashMap::new(),
    }
}

/// Runs `query_many` and checks every answer.
pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let mut expected = prepare(&query_catalogs(seed), seed, dir);
    match worker::run(Workload::QueryMany, dir, seconds, trace) {
        Ok(report) => report.outcome(dir, trace, |op, got| match expected.answer(op) {
            Some(want) if want == got => Ok(()),
            want => Err(format!("got {got:?}, want {want:?}")),
        }),
        Err(e) => worker::broken(&e),
    }
}

/// One query's answer rows.
type Answer = Result<Vec<(Value, Rational)>, CoreError>;

/// A compiled cache of every catalog, with each catalog's identity view
/// and padding.
type State = (CompiledCollection, Vec<(IdentityCollection, u64)>);

/// One fresh set-up: parse every catalog and compile it into one cache.
/// Records its seconds as a `setup` line.
fn set_up(
    texts: &[(String, String, u64)],
    budget: &Budget,
    config: &CircuitConfig,
    tr: &mut Tracer,
    results: &mut Results,
) -> Result<State, String> {
    let start = Instant::now();
    tr.open("setup");
    let mut cache = CompiledCollection::new();
    let mut identities = Vec::new();
    for (_, text, padding) in texts {
        let collection = tr
            .span("textfmt.parse", || parse_collection(text))
            .map_err(|e| e.to_string())?;
        let identity = tr
            .span("collection.as_identity", || collection.as_identity())
            .map_err(|e| e.to_string())?;
        let circuit = tr.span("circuit.compile", || {
            cache.get_or_compile(&identity, *padding, budget, config)
        });
        tr.count(
            "nodes",
            circuit.map_err(|e| e.to_string())?.stats().canonical_nodes,
        );
        identities.push((identity, *padding));
    }
    tr.close();
    results.line(format_args!("setup {}", start.elapsed().as_secs_f64()))?;
    Ok((cache, identities))
}

/// The worker: whole cycles over the query list, each after a fresh
/// set-up outside the timed phase, so the `setup_s` samples span the run.
/// Returns the peak resident set of the first cycle and its set-up.
pub fn work(
    dir: &Path,
    seconds: f64,
    tr: &mut Tracer,
    results: &mut Results,
) -> Result<u64, String> {
    let texts = read_catalogs(dir)?;
    let list: Vec<Query> = read(dir, "queries.txt")?
        .lines()
        .map(Query::parse)
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err("queries.txt lists no query".into());
    }
    results.cycle(list.len())?;
    let budget = Budget::unlimited();
    let config = CircuitConfig::default();
    let trace = tr.is_enabled();
    let mut state = None;
    let mut op = 0;
    crate::sys::reset_peak_rss();
    let mut peak_rss_kib = None;
    while !results.done(seconds) {
        // The last cycle's state goes first, so every set-up starts from
        // the same heap.
        drop(state.take());
        tr.set_enabled(trace);
        let (cache, identities) = state.insert(set_up(&texts, &budget, &config, tr, results)?);
        for query in &list {
            tr.set_enabled(trace && traced_op(op, list.len()));
            let answer: Answer = results.op(tr, |tr| {
                let (identity, padding) = &identities[query.catalog()];
                let hits = cache.hits();
                let circuit = tr.span("circuit.lookup", || {
                    cache.get_or_compile(identity, *padding, &budget, &config)
                })?;
                tr.count("hit", cache.hits() - hits);
                match *query {
                    Query::Conditional { tuple, given, .. } => tr
                        .span("circuit.conditional", || {
                            analyze_circuit_conditional(
                                &circuit,
                                identity,
                                &[tuple],
                                &[vec![given]],
                            )
                        })
                        .map(|conf| vec![(tuple, conf)]),
                    Query::Point { tuple, .. } => {
                        let analysis = tr.span("circuit.point", || analyze_circuit(&circuit));
                        let conf = tr.span("query.tuple", || {
                            analysis.confidence_of_tuple(identity, &[tuple])
                        });
                        tr.count("tuples", 1);
                        conf.map(|conf| vec![(tuple, conf)])
                    }
                    Query::TopK { .. } => tr
                        .span("circuit.topk", || analyze_circuit_topk(&circuit, TOP_K))
                        .map(|rows| rows.into_iter().map(|(t, conf)| (t[0], conf)).collect()),
                }
            })?;
            let text = answer.map_or_else(|e| format!("error: {e}"), |rows| render_rows(&rows));
            results.line(format_args!("ans {op} {text}"))?;
            op += 1;
        }
        peak_rss_kib.get_or_insert_with(crate::sys::peak_rss_kib);
    }
    Ok(peak_rss_kib.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_jsonl;

    fn tiny_catalogs() -> Vec<Catalog> {
        [2usize, 3]
            .into_iter()
            .map(|r| Catalog {
                name: format!("scaled{r}"),
                collection: pscds_core::paper::example_5_1_scaled(r),
                padding: r as u64,
            })
            .collect()
    }

    #[test]
    fn queries_round_trip_through_their_text_form() {
        let q = [
            Query::Conditional {
                catalog: 2,
                tuple: Value::sym("a1"),
                given: Value::sym("b7"),
            },
            Query::Point {
                catalog: 0,
                tuple: Value::sym("u3"),
            },
            Query::TopK { catalog: 5 },
        ];
        for query in q {
            assert_eq!(Query::parse(&query.render()), Ok(query));
        }
        assert!(Query::parse("cond 1 a").is_err());
        assert!(Query::parse("pick 1").is_err());
    }

    #[test]
    fn query_lists_are_a_pure_function_of_the_seed() {
        let catalogs = tiny_catalogs();
        let oracles: Vec<Oracle> = catalogs.iter().map(Oracle::new).collect();
        let text = |seed| {
            let list = queries(seed, &catalogs, &oracles);
            list.iter()
                .map(Query::render)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(text(1), text(1));
        assert_ne!(text(1), text(2));
    }

    /// A traced worker run as short as allowed (`seconds = 0`: one cycle
    /// of at least 100 queries), every answer checked against the oracle.
    #[test]
    fn tiny_worker_run_has_no_failures() {
        let dir = std::env::temp_dir().join(format!("pscds-bench-queries-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut expected = prepare(&tiny_catalogs(), 7, &dir);
        worker::work(Workload::QueryMany, &dir, 0.0, true).unwrap();
        let result = read(&dir, "result.txt").unwrap();
        let mut checked = 0;
        for line in result.lines().filter_map(|l| l.strip_prefix("ans ")) {
            let (op, got) = line.split_once(' ').unwrap();
            assert_eq!(expected.answer(op), Some(got), "op {op}");
            checked += 1;
        }
        let weights: usize = tiny_catalogs().iter().map(query_weight).sum();
        assert_eq!(checked, 100 * weights);
        let spans = parse_jsonl(&read(&dir, "trace.jsonl").unwrap()).unwrap();
        assert!(spans.iter().any(|s| s.name == "circuit.lookup"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
