//! Pluggable result sinks: JSON-lines and CSV emission of per-point
//! records, plus the `--format` flag every figure binary accepts.
//!
//! The text tables the binaries have always printed remain their primary,
//! human-facing output; these sinks append machine-readable per-point
//! records (with metadata: cache hit/miss, host wall-clock) for scripting
//! and plotting. Records are flat `(key, value)` rows so the same two
//! emitters also serve table-shaped binaries (`table1`, `table2`) that
//! have no simulation points.

use std::fmt;
use std::io::{self, Write};

use crate::campaign::PointOutcome;

/// A record field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string field (quoted in JSON; CSV-escaped when needed).
    Str(String),
    /// An integer field.
    Int(u64),
    /// A float field (emitted with enough digits to round-trip).
    Float(f64),
    /// A boolean field.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One flat record: ordered `(column, value)` pairs.
pub type Record = Vec<(&'static str, Value)>;

/// The output format a figure binary was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Text tables only (the default).
    #[default]
    Text,
    /// Text tables followed by one JSON object per point.
    Json,
    /// Text tables followed by a CSV block.
    Csv,
}

impl OutputFormat {
    /// Parses a format name.
    pub fn parse(name: &str) -> Option<OutputFormat> {
        match name {
            "text" => Some(OutputFormat::Text),
            "json" => Some(OutputFormat::Json),
            "csv" => Some(OutputFormat::Csv),
            _ => None,
        }
    }

    /// Reads `--format <text|json|csv>` (or `--format=<...>`) from the
    /// process arguments. Unknown formats or a missing value abort with a
    /// usage message — a figure run that silently ignored the flag would
    /// produce a table where a script expected records.
    pub fn from_args() -> OutputFormat {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let name = if let Some(inline) = arg.strip_prefix("--format=") {
                inline.to_string()
            } else if arg == "--format" || arg == "-f" {
                match args.next() {
                    Some(name) => name,
                    None => die_usage("missing value after --format"),
                }
            } else {
                continue;
            };
            match OutputFormat::parse(&name) {
                Some(format) => return format,
                None => die_usage(&format!("unknown format {name:?}")),
            }
        }
        OutputFormat::Text
    }
}

fn die_usage(problem: &str) -> ! {
    eprintln!("error: {problem}; expected --format <text|json|csv>");
    std::process::exit(2);
}

/// The flat record for one campaign point, shared by both emitters.
///
/// A failed point still yields a full-width record — same columns, so the
/// CSV header stays consistent — with its measurements nulled (JSON) /
/// zeroed and the `error` column carrying the failure message. Healthy
/// points have an empty `error` column.
pub fn point_record(outcome: &PointOutcome) -> Record {
    match &outcome.result {
        Ok(r) => {
            let b = &r.breakdown;
            let quantile_ns = |q| r.read_latency_quantile(q).as_ns_f64();
            // Telemetry columns are NaN (JSON null) unless the run was
            // traced — the campaign default is Off, and cache hits never
            // carry telemetry.
            let t = r.telemetry.as_ref();
            let tv = |v: Option<f64>| Value::Float(v.unwrap_or(f64::NAN));
            point_record_fields(
                outcome,
                Value::Str(r.label.clone()),
                Value::Str(r.workload.clone()),
                vec![
                    ("wall_ns", Value::Float(r.wall.as_ns_f64())),
                    ("throughput_per_us", Value::Float(r.throughput_per_us())),
                    ("reads", Value::Int(r.reads)),
                    ("writes", Value::Int(r.writes)),
                    ("to_mem_ns", Value::Float(b.to_memory.mean_ns())),
                    ("in_mem_ns", Value::Float(b.in_memory.mean_ns())),
                    ("from_mem_ns", Value::Float(b.from_memory.mean_ns())),
                    ("read_p50_ns", Value::Float(quantile_ns(0.50))),
                    ("read_p95_ns", Value::Float(quantile_ns(0.95))),
                    ("read_p99_ns", Value::Float(quantile_ns(0.99))),
                    ("row_hit_rate", Value::Float(r.row_hit_rate)),
                    ("avg_hops", Value::Float(r.avg_hops)),
                    ("energy_network_uj", Value::Float(r.energy.network.as_uj())),
                    ("energy_read_uj", Value::Float(r.energy.read.as_uj())),
                    ("energy_write_uj", Value::Float(r.energy.write.as_uj())),
                    ("jain_fairness", tv(t.map(|t| t.fairness.jain()))),
                    ("req_queue_ns", tv(t.map(|t| t.decomp.req_queue.mean_ns()))),
                    ("req_wire_ns", tv(t.map(|t| t.decomp.req_wire.mean_ns()))),
                    ("array_ns", tv(t.map(|t| t.decomp.array_ns()))),
                    (
                        "resp_queue_ns",
                        tv(t.map(|t| t.decomp.resp_queue.mean_ns())),
                    ),
                    ("resp_wire_ns", tv(t.map(|t| t.decomp.resp_wire.mean_ns()))),
                    (
                        "peak_queue_depth",
                        tv(t.map(|t| t.queue_depth.peak() as f64)),
                    ),
                    ("p99_queue_depth", tv(t.map(|t| t.queue_depth.p99() as f64))),
                    ("peak_link_util", tv(t.map(|t| t.peak_link_utilization))),
                    // Closed-loop columns: goodput is always measurable;
                    // window/mark stats need a traced closed-loop run
                    // (the host rollup rides on telemetry).
                    ("goodput_per_us", Value::Float(r.throughput_per_us())),
                    (
                        "steady_window",
                        tv(t.and_then(|t| t.host.as_ref()).map(|h| h.steady_window())),
                    ),
                    (
                        "marked_fraction",
                        tv(t.and_then(|t| t.host.as_ref()).map(|h| h.marked_fraction())),
                    ),
                ],
                String::new(),
            )
        }
        Err(e) => point_record_fields(
            outcome,
            Value::Str(outcome.point.config.label()),
            Value::Str(outcome.point.workload.label().to_string()),
            // NaN renders as null in JSON — "no measurement", distinct
            // from a measured zero — and keeps the CSV row full-width.
            vec![
                ("wall_ns", Value::Float(f64::NAN)),
                ("throughput_per_us", Value::Float(f64::NAN)),
                ("reads", Value::Int(0)),
                ("writes", Value::Int(0)),
                ("to_mem_ns", Value::Float(f64::NAN)),
                ("in_mem_ns", Value::Float(f64::NAN)),
                ("from_mem_ns", Value::Float(f64::NAN)),
                ("read_p50_ns", Value::Float(f64::NAN)),
                ("read_p95_ns", Value::Float(f64::NAN)),
                ("read_p99_ns", Value::Float(f64::NAN)),
                ("row_hit_rate", Value::Float(f64::NAN)),
                ("avg_hops", Value::Float(f64::NAN)),
                ("energy_network_uj", Value::Float(f64::NAN)),
                ("energy_read_uj", Value::Float(f64::NAN)),
                ("energy_write_uj", Value::Float(f64::NAN)),
                ("jain_fairness", Value::Float(f64::NAN)),
                ("req_queue_ns", Value::Float(f64::NAN)),
                ("req_wire_ns", Value::Float(f64::NAN)),
                ("array_ns", Value::Float(f64::NAN)),
                ("resp_queue_ns", Value::Float(f64::NAN)),
                ("resp_wire_ns", Value::Float(f64::NAN)),
                ("peak_queue_depth", Value::Float(f64::NAN)),
                ("p99_queue_depth", Value::Float(f64::NAN)),
                ("peak_link_util", Value::Float(f64::NAN)),
                ("goodput_per_us", Value::Float(f64::NAN)),
                ("steady_window", Value::Float(f64::NAN)),
                ("marked_fraction", Value::Float(f64::NAN)),
            ],
            e.to_string(),
        ),
    }
}

/// Assembles the fixed column order shared by the success and error arms,
/// so the two can never drift apart and split a CSV header.
fn point_record_fields(
    outcome: &PointOutcome,
    label: Value,
    workload: Value,
    measurements: Vec<(&'static str, Value)>,
    error: String,
) -> Record {
    let mut record = vec![("label", label), ("workload", workload)];
    record.extend(measurements);
    record.extend([
        (
            "requests_per_port",
            Value::Int(outcome.point.config.requests_per_port),
        ),
        ("seed", Value::Int(outcome.point.config.seed)),
        ("cached", Value::Bool(outcome.cached)),
        ("attempts", Value::Int(u64::from(outcome.attempts))),
        ("host_ms", Value::Float(outcome.host.as_secs_f64() * 1e3)),
        ("error", Value::Str(error)),
    ]);
    record
}

/// Writes `records` to `w` in `format`; [`OutputFormat::Text`] writes
/// nothing (the caller's tables are the text output).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_records<W: Write>(
    w: &mut W,
    format: OutputFormat,
    records: &[Record],
) -> io::Result<()> {
    match format {
        OutputFormat::Text => Ok(()),
        OutputFormat::Json => {
            for record in records {
                let fields: Vec<String> = record
                    .iter()
                    .map(|(key, value)| match value {
                        Value::Str(s) => format!("{}:{}", json_string(key), json_string(s)),
                        Value::Float(x) if !x.is_finite() => {
                            format!("{}:null", json_string(key))
                        }
                        other => format!("{}:{}", json_string(key), other),
                    })
                    .collect();
                writeln!(w, "{{{}}}", fields.join(","))?;
            }
            Ok(())
        }
        OutputFormat::Csv => {
            let Some(first) = records.first() else {
                return Ok(());
            };
            let header: Vec<&str> = first.iter().map(|(key, _)| *key).collect();
            writeln!(w, "{}", header.join(","))?;
            for record in records {
                let row: Vec<String> = record
                    .iter()
                    .map(|(_, value)| match value {
                        Value::Str(s) => csv_field(s),
                        other => other.to_string(),
                    })
                    .collect();
                writeln!(w, "{}", row.join(","))?;
            }
            Ok(())
        }
    }
}

/// Convenience: per-point records for a whole campaign, to stdout.
///
/// Emission goes through one [`io::BufWriter`] over the locked stdout —
/// a grid's worth of records used to pay a syscall per line, which
/// dominated `--format json` runs against a warm cache. The writer is
/// flushed explicitly before it drops, so an emission error surfaces
/// here instead of being swallowed by `Drop`; the bytes are identical
/// to unbuffered emission (the byte-identity test below pins this).
///
/// # Errors
///
/// Propagates I/O errors from stdout.
pub fn write_point_records(format: OutputFormat, outcomes: &[PointOutcome]) -> io::Result<()> {
    let records: Vec<Record> = outcomes.iter().map(point_record).collect();
    let mut w = io::BufWriter::new(std::io::stdout().lock());
    write_records(&mut w, format, &records)?;
    w.flush()
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            vec![
                ("label", Value::Str("50%-T (NVM-L)".into())),
                ("wall_ns", Value::Float(1234.5)),
                ("reads", Value::Int(10)),
                ("cached", Value::Bool(true)),
            ],
            vec![
                ("label", Value::Str("a,b\"c".into())),
                ("wall_ns", Value::Float(8.0)),
                ("reads", Value::Int(2)),
                ("cached", Value::Bool(false)),
            ],
        ]
    }

    #[test]
    fn json_lines_shape() {
        let mut out = Vec::new();
        write_records(&mut out, OutputFormat::Json, &sample_records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"label\":\"50%-T (NVM-L)\""));
        assert!(lines[0].contains("\"cached\":true"));
        assert!(lines[1].contains("\"label\":\"a,b\\\"c\""));
    }

    #[test]
    fn csv_shape_and_escaping() {
        let mut out = Vec::new();
        write_records(&mut out, OutputFormat::Csv, &sample_records()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "label,wall_ns,reads,cached");
        assert_eq!(lines[1], "50%-T (NVM-L),1234.5,10,true");
        assert_eq!(lines[2], "\"a,b\"\"c\",8,2,false");
    }

    #[test]
    fn text_format_writes_nothing() {
        let mut out = Vec::new();
        write_records(&mut out, OutputFormat::Text, &sample_records()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn buffered_emission_is_byte_identical_to_unbuffered() {
        // `write_point_records` routes through a BufWriter; buffering is
        // a transport detail and must never change the bytes. Tiny
        // capacities force flush boundaries mid-line and mid-record.
        for format in [OutputFormat::Json, OutputFormat::Csv] {
            let records = sample_records();
            let mut plain = Vec::new();
            write_records(&mut plain, format, &records).unwrap();

            for capacity in [1, 3, 7, 4096] {
                let mut sink = Vec::new();
                let mut buffered = io::BufWriter::with_capacity(capacity, &mut sink);
                write_records(&mut buffered, format, &records).unwrap();
                buffered.flush().unwrap();
                drop(buffered);
                assert_eq!(sink, plain, "capacity {capacity}, {format:?}");
            }
        }
    }

    #[test]
    fn failed_points_keep_the_same_columns() {
        use crate::error::CampaignError;
        use crate::point::CampaignPoint;
        use mn_core::{SimError, SystemConfig};
        use mn_topo::TopologyKind;
        use mn_workloads::Workload;

        let mut config = SystemConfig::paper_baseline(TopologyKind::Tree, 1.0).unwrap();
        config.requests_per_port = 150;
        let point = CampaignPoint::new(config, Workload::Nw);
        let result = mn_core::simulate(&point.config, point.workload);

        let ok = PointOutcome {
            point: point.clone(),
            result: Ok(result),
            cached: false,
            coalesced: false,
            attempts: 1,
            host: std::time::Duration::from_millis(1),
        };
        let failed = PointOutcome {
            point,
            result: Err(CampaignError::Sim {
                port: 0,
                error: SimError::Partitioned {
                    unreachable: vec![mn_topo::NodeId(3)],
                },
            }),
            cached: false,
            coalesced: false,
            attempts: 1,
            host: std::time::Duration::ZERO,
        };

        let ok_record = point_record(&ok);
        let err_record = point_record(&failed);
        let columns = |r: &Record| r.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(columns(&ok_record), columns(&err_record));

        let field = |r: &Record, k: &str| r.iter().find(|(key, _)| *key == k).unwrap().1.clone();
        assert_eq!(field(&ok_record, "error"), Value::Str(String::new()));
        let Value::Str(msg) = field(&err_record, "error") else {
            panic!("error column should be a string");
        };
        assert!(msg.contains("partitioned"), "{msg}");
        assert_eq!(field(&err_record, "label"), Value::Str("100%-T".into()));

        // Both shapes emit cleanly: error rows become null-measurement
        // JSON lines and full-width CSV rows under the shared header.
        let records = vec![ok_record, err_record];
        let mut json = Vec::new();
        write_records(&mut json, OutputFormat::Json, &records).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert!(json.lines().nth(1).unwrap().contains("\"wall_ns\":null"));
        let mut csv = Vec::new();
        write_records(&mut csv, OutputFormat::Csv, &records).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        let header_fields = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_fields, "{line}");
        }
    }

    #[test]
    fn traced_results_fill_telemetry_columns() {
        use crate::point::CampaignPoint;
        use mn_core::SystemConfig;
        use mn_topo::TopologyKind;
        use mn_workloads::Workload;

        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 150;
        config.noc.trace = mn_core::TraceConfig::Counters;
        let point = CampaignPoint::new(config, Workload::Dct);
        let result = mn_core::simulate(&point.config, point.workload);
        let outcome = PointOutcome {
            point,
            result: Ok(result),
            cached: false,
            coalesced: false,
            attempts: 1,
            host: std::time::Duration::ZERO,
        };
        let record = point_record(&outcome);
        let field = |k: &str| {
            record
                .iter()
                .find(|(key, _)| *key == k)
                .unwrap_or_else(|| panic!("column {k}"))
                .1
                .clone()
        };
        for col in [
            "jain_fairness",
            "req_queue_ns",
            "req_wire_ns",
            "array_ns",
            "resp_queue_ns",
            "resp_wire_ns",
            "peak_queue_depth",
            "p99_queue_depth",
            "peak_link_util",
        ] {
            let Value::Float(x) = field(col) else {
                panic!("{col} should be a float");
            };
            assert!(x.is_finite(), "{col} = {x}");
        }
        let Value::Float(jain) = field("jain_fairness") else {
            unreachable!()
        };
        assert!(jain > 0.0 && jain <= 1.0, "jain {jain}");
    }

    #[test]
    fn closed_loop_runs_fill_host_columns() {
        use crate::point::CampaignPoint;
        use mn_core::SystemConfig;
        use mn_topo::TopologyKind;
        use mn_workloads::Workload;

        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 150;
        config.noc.trace = mn_core::TraceConfig::Counters;
        config.noc.ecn_threshold = 4;
        config.host.policy = mn_core::WindowPolicyKind::Ecn;
        let point = CampaignPoint::new(config, Workload::Dct);
        let result = mn_core::simulate(&point.config, point.workload);
        let outcome = PointOutcome {
            point,
            result: Ok(result),
            cached: false,
            coalesced: false,
            attempts: 1,
            host: std::time::Duration::ZERO,
        };
        let record = point_record(&outcome);
        let field = |k: &str| {
            record
                .iter()
                .find(|(key, _)| *key == k)
                .unwrap_or_else(|| panic!("column {k}"))
                .1
                .clone()
        };
        let Value::Float(goodput) = field("goodput_per_us") else {
            panic!("goodput should be a float");
        };
        assert!(goodput > 0.0, "goodput {goodput}");
        let Value::Float(steady) = field("steady_window") else {
            panic!("steady_window should be a float");
        };
        assert!(steady >= 1.0, "steady window {steady}");
        let Value::Float(marked) = field("marked_fraction") else {
            panic!("marked_fraction should be a float");
        };
        assert!((0.0..=1.0).contains(&marked), "marked {marked}");

        // Open-loop traced runs still report goodput but no window stats.
        let mut open = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        open.requests_per_port = 150;
        open.noc.trace = mn_core::TraceConfig::Counters;
        let point = CampaignPoint::new(open, Workload::Dct);
        let result = mn_core::simulate(&point.config, point.workload);
        let outcome = PointOutcome {
            point,
            result: Ok(result),
            cached: false,
            coalesced: false,
            attempts: 1,
            host: std::time::Duration::ZERO,
        };
        let record = point_record(&outcome);
        let steady = record
            .iter()
            .find(|(key, _)| *key == "steady_window")
            .unwrap()
            .1
            .clone();
        let Value::Float(steady) = steady else {
            panic!("steady_window should be a float");
        };
        assert!(steady.is_nan(), "open loop has no window series");
    }

    #[test]
    fn format_parsing() {
        assert_eq!(OutputFormat::parse("json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::parse("csv"), Some(OutputFormat::Csv));
        assert_eq!(OutputFormat::parse("text"), Some(OutputFormat::Text));
        assert_eq!(OutputFormat::parse("yaml"), None);
    }
}
