//! One module per paper artefact (table/figure) plus the ablations.
//!
//! Every module exposes `run(corpus) -> String`: it prints progress to
//! stderr, writes `results/<id>.{jsonl,txt}`, and returns the rendered
//! table(s) for stdout.

pub mod ablations;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod perf;
pub mod scale;
pub mod scenarios;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
