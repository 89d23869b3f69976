//! Table VI: incremental author disambiguation — build the GCN on the
//! corpus minus the last 100/200/300 papers, stream the held-out papers
//! through the incremental interface, and compare metrics before ("MicroX")
//! and after ("MicroX+") along with the average latency per paper.

use std::time::Instant;

use iuad_core::{Iuad, IuadConfig};
use iuad_corpus::Corpus;
use iuad_eval::Table;
use serde::Serialize;

use crate::{eval_labels, split_train_test_names, write_results};

#[derive(Serialize)]
struct Row {
    held_out: usize,
    metric: &'static str,
    base: f64,
    after_incremental: f64,
    improvement: f64,
}

#[derive(Serialize)]
struct TimeRow {
    held_out: usize,
    avg_ms_per_paper: f64,
}

/// Run Table VI and return the rendered output.
pub fn run(corpus: &Corpus) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let mut times: Vec<TimeRow> = Vec::new();

    for &k in &[100usize, 200, 300] {
        let (base, tail) = corpus.split_tail(k);
        eprintln!(
            "table6: fitting on {} papers, streaming {}",
            base.papers.len(),
            k
        );
        let mut iuad = Iuad::fit(&base, &IuadConfig::default());
        let (test, _) = split_train_test_names(&base, 50);

        // Metrics on the base corpus before streaming.
        let m_base = eval_labels(&base, &test, |name| iuad.labels_of_name(&base, name));

        // Stream the held-out papers one by one (every author slot).
        let start = Instant::now();
        for (paper, _) in &tail {
            iuad.ingest(paper);
        }
        let elapsed = start.elapsed();
        times.push(TimeRow {
            held_out: k,
            avg_ms_per_paper: elapsed.as_secs_f64() * 1e3 / k as f64,
        });

        // Metrics over the entire corpus (base + streamed mentions).
        let m_plus = eval_labels(corpus, &test, |name| {
            corpus
                .mentions_of_name(name)
                .iter()
                .map(|m| iuad.network.assignment[m].index())
                .collect()
        });

        for (metric, b, a) in [
            ("MicroA", m_base.accuracy, m_plus.accuracy),
            ("MicroP", m_base.precision, m_plus.precision),
            ("MicroR", m_base.recall, m_plus.recall),
            ("MicroF", m_base.f1, m_plus.f1),
        ] {
            rows.push(Row {
                held_out: k,
                metric,
                base: b,
                after_incremental: a,
                improvement: a - b,
            });
        }
    }

    let mut t = Table::new(["Metric", "100", "200", "300"]);
    for metric in ["MicroA", "MicroP", "MicroR", "MicroF"] {
        for (suffix, get) in [("", 0usize), ("+", 1), (" improv.", 2)] {
            let cells: Vec<String> = [100usize, 200, 300]
                .iter()
                .map(|&k| {
                    let r = rows
                        .iter()
                        .find(|r| r.held_out == k && r.metric == metric)
                        .unwrap();
                    match get {
                        0 => format!("{:.4}", r.base),
                        1 => format!("{:.4}", r.after_incremental),
                        _ => format!("{:+.4}", r.improvement),
                    }
                })
                .collect();
            let mut row = vec![format!("{metric}{suffix}")];
            row.extend(cells);
            t.row(row);
        }
    }
    let time_cells: Vec<String> = times
        .iter()
        .map(|t| format!("{:.2}", t.avg_ms_per_paper))
        .collect();
    let mut row = vec!["Avg. time (ms)".to_string()];
    row.extend(time_cells);
    t.row(row);

    let out = t.render();
    write_results("table6", &rows, &out);
    write_results("table6_time", &times, &out);
    out
}
