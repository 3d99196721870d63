//! Equivalence at the server's window close: [`QueryRegistry::close_window`]
//! — one column batch per physical stream, lent to every attached
//! query's columnar close — produces exactly the payload of the row
//! oracle: [`execute_window_rows`] over row references, then
//! [`QueryExecutor::payload`] for the shadow estimate, merge and HAVING.
//!
//! Three shapes, each over randomized windows:
//!
//! * the paper's Fig. 7 three-way join under Data Triage with sparse
//!   synopses (the vectorized join kernels);
//! * drop-only queries over string, float and NULL-bearing columns (the
//!   columnar executor's row fallback);
//! * several queries sharing one stream, so one batch fans out to each.
//!
//! Merged values are compared by `to_bits()`, so a NaN (AVG over an
//! empty group) counts as equal only when both sides produce the same
//! bits.

use dt_engine::execute_window_rows;
use dt_obs::MetricsRegistry;
use dt_query::{parse_select, Catalog, Planner};
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig, WindowInputs};
use dt_synopsis::SynopsisConfig;
use dt_triage::{QueryExecutor, ShedMode, SynPair, WindowPayload};
use dt_types::{DataType, Row, Schema, VDuration, Value, WindowSpec};
use proptest::prelude::*;

fn registry(catalog: &Catalog, mode: ShedMode, sqls: &[&str]) -> QueryRegistry {
    let r = QueryRegistry::new(
        RegistryConfig {
            catalog: catalog.clone(),
            mode,
            spec: spec(),
            override_windows: true,
        },
        MetricsRegistry::disabled(),
    )
    .unwrap();
    for sql in sqls {
        r.register(QuerySpec::new(*sql)).unwrap();
    }
    r
}

fn spec() -> WindowSpec {
    WindowSpec::new(VDuration::from_secs(1)).unwrap()
}

/// The row oracle for one query: plan it as the registry does, run
/// the row executor over the physical streams it reads, and merge
/// through the same executor's `payload`.
fn oracle(
    catalog: &Catalog,
    mode: ShedMode,
    sql: &str,
    rows: &[Vec<Row>],
    pairs: Option<&[SynPair]>,
) -> WindowPayload {
    let mut plan = Planner::new(catalog)
        .plan(&parse_select(sql).unwrap())
        .unwrap();
    for s in &mut plan.streams {
        s.window = spec();
    }
    let phys = |name: &str| {
        catalog
            .streams()
            .iter()
            .position(|(n, _)| n == name)
            .unwrap()
    };
    let inputs: Vec<Vec<&Row>> = plan
        .streams
        .iter()
        .map(|b| rows[phys(&b.stream)].iter().collect())
        .collect();
    let exact = execute_window_rows(&plan, &inputs).unwrap();
    let exec = QueryExecutor::new(vec![plan], mode).unwrap();
    let exec_pairs: Option<Vec<SynPair>> = pairs.map(|p| {
        exec.streams()
            .iter()
            .map(|s| p[phys(&s.name)].clone())
            .collect()
    });
    exec.payload(0, exact, exec_pairs.as_deref()).unwrap()
}

type Canon = (Vec<(Row, Vec<u64>)>, Option<String>);

fn canon(p: &WindowPayload) -> Canon {
    match p {
        WindowPayload::Groups(g) => {
            let mut v: Vec<(Row, Vec<u64>)> = g
                .iter()
                .map(|(k, vals)| (k.clone(), vals.iter().map(|x| x.to_bits()).collect()))
                .collect();
            v.sort();
            (v, None)
        }
        // Row outputs keep emission order.
        WindowPayload::Rows { rows, lost } => (
            rows.iter().map(|r| (r.clone(), Vec::new())).collect(),
            Some(format!("{lost:?}")),
        ),
    }
}

/// Close one window through the registry and check every attached
/// query against its oracle.
fn check_close(
    catalog: &Catalog,
    mode: ShedMode,
    sqls: &[&str],
    rows: &[Vec<Row>],
    pairs: Option<&[SynPair]>,
) -> Result<(), TestCaseError> {
    let r = registry(catalog, mode, sqls);
    let counts: Vec<(u64, u64)> = rows.iter().map(|r| (r.len() as u64, 0)).collect();
    let closes = r
        .close_window(
            0,
            WindowInputs {
                rows,
                pairs,
                counts: &counts,
            },
        )
        .unwrap();
    prop_assert_eq!(closes.len(), sqls.len());
    for ((_, close), sql) in closes.iter().zip(sqls) {
        let want = oracle(catalog, mode, sql, rows, pairs);
        prop_assert_eq!(canon(&close.payload), canon(&want), "{}", sql);
    }
    Ok(())
}

/// Sealed kept/dropped sparse synopses: kept rows summarized as the
/// worker does, plus a separate set of shed tuples.
fn seal(
    catalog: &Catalog,
    cell_width: i64,
    rows: &[Vec<Row>],
    dropped: &[Vec<Vec<i64>>],
) -> Vec<SynPair> {
    let cfg = SynopsisConfig::Sparse { cell_width };
    catalog
        .streams()
        .iter()
        .enumerate()
        .map(|(i, (_, schema))| {
            let mut pair = SynPair {
                kept: cfg.build(schema.arity()).unwrap(),
                dropped: cfg.build(schema.arity()).unwrap(),
            };
            for row in &rows[i] {
                let point: Vec<i64> = row.values().iter().map(|v| v.as_i64().unwrap()).collect();
                pair.kept.insert(&point).unwrap();
            }
            for point in &dropped[i] {
                pair.dropped.insert(point).unwrap();
            }
            pair.kept.seal();
            pair.dropped.seal();
            pair
        })
        .collect()
}

fn int_rows(arity: usize, max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(0i64..8, arity).prop_map(|v| Row::from_ints(&v)),
        0..=max,
    )
}

fn points(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..8, arity), 0..=max)
}

fn fig7_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    c.add_stream("T", Schema::from_pairs(&[("d", DataType::Int)]));
    c
}

fn mixed_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream(
        "P",
        Schema::from_pairs(&[
            ("k", DataType::Str),
            ("x", DataType::Float),
            ("n", DataType::Int),
        ]),
    );
    c
}

/// A `P` row: a string key, a float and an int, each sometimes NULL.
fn mixed_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let key = (0usize..4).prop_map(|i| match i {
        3 => Value::Null,
        i => Value::Str(["a", "b", "c"][i].into()),
    });
    let float = (0i64..5).prop_map(|i| match i {
        4 => Value::Null,
        i => Value::Float(i as f64 * 0.75),
    });
    let int = (0i64..5).prop_map(|i| if i == 4 { Value::Null } else { Value::Int(i) });
    prop::collection::vec(
        (key, float, int).prop_map(|(k, x, n)| Row::new(vec![k, x, n])),
        0..=max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's Fig. 7 join under Data Triage: exact join over the
    /// kept rows plus the shadow estimate over sparse synopses.
    #[test]
    fn fig7_join_matches_the_row_oracle(
        r in int_rows(1, 40),
        s in int_rows(2, 40),
        t in int_rows(1, 40),
        dr in points(1, 20),
        ds in points(2, 20),
        dt in points(1, 20),
        cell_width in 1i64..4,
    ) {
        let catalog = fig7_catalog();
        let rows = vec![r, s, t];
        let pairs = seal(&catalog, cell_width, &rows, &[dr, ds, dt]);
        check_close(
            &catalog,
            ShedMode::DataTriage,
            &["SELECT a, COUNT(*) FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY a"],
            &rows,
            Some(&pairs),
        )?;
    }

    /// Drop-only queries over string, float and NULL-bearing columns:
    /// a string predicate sends the columnar executor down its row
    /// fallback, which must still match the oracle.
    #[test]
    fn fallback_shapes_match_the_row_oracle(p in mixed_rows(60)) {
        check_close(
            &mixed_catalog(),
            ShedMode::DropOnly,
            &[
                "SELECT k, COUNT(*), SUM(x), AVG(n) FROM P WHERE k <> 'b' GROUP BY k",
                "SELECT k, x FROM P WHERE k <> 'c' AND x > 0.5",
            ],
            &[p],
            None,
        )?;
    }

    /// Three queries, two of them on `R`: one batch per stream fans
    /// out to every query that reads it.
    #[test]
    fn shared_stream_fan_out_matches_the_row_oracle(
        r in int_rows(1, 60),
        s in int_rows(2, 60),
        dr in points(1, 20),
        ds in points(2, 20),
    ) {
        let mut catalog = Catalog::new();
        catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        catalog.add_stream(
            "S",
            Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
        );
        let rows = vec![r, s];
        let pairs = seal(&catalog, 1, &rows, &[dr, ds]);
        check_close(
            &catalog,
            ShedMode::DataTriage,
            &[
                "SELECT a, COUNT(*) FROM R GROUP BY a",
                "SELECT a, SUM(a) FROM R WHERE a > 2 GROUP BY a",
                "SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a",
            ],
            &rows,
            Some(&pairs),
        )?;
    }
}
