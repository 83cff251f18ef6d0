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

use mn_core::RunResult;
use mn_telemetry::{HostSummary, TelemetrySummary};

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

/// One measurement column of a point record: its name, and how it reads
/// a result.
enum Column {
    /// A float the result always has.
    Float(&'static str, fn(&RunResult) -> f64),
    /// A count the result always has.
    Count(&'static str, fn(&RunResult) -> u64),
    /// A float of the telemetry rollup: NaN (JSON null) unless the run was
    /// traced (the campaign default is Off; a traced point is never a
    /// cache hit).
    Traced(&'static str, fn(&TelemetrySummary) -> f64),
    /// A float of the host rollup, which rides on telemetry: NaN unless
    /// the run was a traced closed-loop run.
    Host(&'static str, fn(&HostSummary) -> f64),
}

use Column::{Count, Float, Host, Traced};

/// The measurement columns of a point record, in order.
const MEASUREMENTS: [Column; 27] = [
    Float("wall_ns", |r| r.wall.as_ns_f64()),
    Float("throughput_per_us", RunResult::throughput_per_us),
    Count("reads", |r| r.reads),
    Count("writes", |r| r.writes),
    Float("to_mem_ns", |r| r.breakdown.to_memory.mean_ns()),
    Float("in_mem_ns", |r| r.breakdown.in_memory.mean_ns()),
    Float("from_mem_ns", |r| r.breakdown.from_memory.mean_ns()),
    Float("read_p50_ns", |r| r.read_latency_quantile(0.50).as_ns_f64()),
    Float("read_p95_ns", |r| r.read_latency_quantile(0.95).as_ns_f64()),
    Float("read_p99_ns", |r| r.read_latency_quantile(0.99).as_ns_f64()),
    Float("row_hit_rate", |r| r.row_hit_rate),
    Float("avg_hops", |r| r.avg_hops),
    Float("energy_network_uj", |r| r.energy.network.as_uj()),
    Float("energy_read_uj", |r| r.energy.read.as_uj()),
    Float("energy_write_uj", |r| r.energy.write.as_uj()),
    Traced("jain_fairness", |t| t.fairness.jain()),
    Traced("req_queue_ns", |t| t.decomp.req_queue.mean_ns()),
    Traced("req_wire_ns", |t| t.decomp.req_wire.mean_ns()),
    Traced("array_ns", |t| t.decomp.array_ns()),
    Traced("resp_queue_ns", |t| t.decomp.resp_queue.mean_ns()),
    Traced("resp_wire_ns", |t| t.decomp.resp_wire.mean_ns()),
    Traced("peak_queue_depth", |t| t.queue_depth.peak() as f64),
    Traced("p99_queue_depth", |t| t.queue_depth.p99() as f64),
    Traced("peak_link_util", |t| t.peak_link_utilization),
    // Goodput is always measurable, open or closed loop.
    Float("goodput_per_us", RunResult::throughput_per_us),
    Host("steady_window", HostSummary::steady_window),
    Host("marked_fraction", HostSummary::marked_fraction),
];

/// The flat record for one campaign point, shared by both emitters.
///
/// A failed point still yields a full-width record — the same columns, so
/// the CSV header stays consistent — with its measurements nulled (JSON) /
/// zeroed and the `error` column carrying the failure message. Healthy
/// points have an empty `error` column.
pub fn point_record(outcome: &PointOutcome) -> Record {
    let config = &outcome.point.config;
    let (label, workload, error) = match &outcome.result {
        Ok(r) => (r.label.clone(), r.workload.clone(), String::new()),
        Err(e) => (
            config.label(),
            outcome.point.workload.label().to_string(),
            e.to_string(),
        ),
    };
    let result = outcome.result.as_ref().ok();
    let telemetry = result.and_then(|r| r.telemetry.as_deref());
    let host = telemetry.and_then(|t| t.host.as_ref());
    let mut record = vec![
        ("label", Value::Str(label)),
        ("workload", Value::Str(workload)),
    ];
    // A missing measurement is NaN, which renders as null in JSON — "no
    // measurement", distinct from a measured zero — or a zero count, and
    // either keeps the CSV row full-width.
    record.extend(MEASUREMENTS.iter().map(|column| match *column {
        Float(name, read) => (name, Value::Float(result.map_or(f64::NAN, read))),
        Count(name, read) => (name, Value::Int(result.map_or(0, read))),
        Traced(name, read) => (name, Value::Float(telemetry.map_or(f64::NAN, read))),
        Host(name, read) => (name, Value::Float(host.map_or(f64::NAN, read))),
    }));
    record.extend([
        ("requests_per_port", Value::Int(config.requests_per_port)),
        ("seed", Value::Int(config.seed)),
        ("cached", Value::Bool(outcome.cached)),
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
    use crate::error::CampaignError;
    use crate::point::CampaignPoint;
    use mn_core::{SimError, SystemConfig};
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

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

    fn outcome(point: CampaignPoint, result: Result<RunResult, CampaignError>) -> PointOutcome {
        PointOutcome {
            point,
            result,
            cached: false,
            coalesced: false,
            host: std::time::Duration::ZERO,
        }
    }

    /// The record of `config` simulated at 150 requests per port.
    fn simulated_record(mut config: SystemConfig, workload: Workload) -> Record {
        config.requests_per_port = 150;
        let point = CampaignPoint::new(config, workload);
        let result = mn_core::simulate(&point.config, point.workload);
        point_record(&outcome(point, Ok(result)))
    }

    fn field(record: &Record, column: &str) -> Value {
        let found = record.iter().find(|(key, _)| *key == column);
        found.unwrap_or_else(|| panic!("column {column}")).1.clone()
    }

    fn float(record: &Record, column: &str) -> f64 {
        let Value::Float(x) = field(record, column) else {
            panic!("{column} should be a float");
        };
        x
    }

    #[test]
    fn failed_points_keep_the_same_columns() {
        let config = SystemConfig::paper_baseline(TopologyKind::Tree, 1.0).unwrap();
        let ok_record = simulated_record(config.clone(), Workload::Nw);
        let error = CampaignError::Sim {
            port: 0,
            error: SimError::Partitioned {
                unreachable: vec![mn_topo::NodeId(3)],
            },
        };
        let err_record = point_record(&outcome(
            CampaignPoint::new(config, Workload::Nw),
            Err(error),
        ));
        let columns = |r: &Record| r.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(columns(&ok_record), columns(&err_record));

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
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.noc.trace = mn_core::TraceConfig::Counters;
        let record = simulated_record(config, Workload::Dct);
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
            let x = float(&record, col);
            assert!(x.is_finite(), "{col} = {x}");
        }
        let jain = float(&record, "jain_fairness");
        assert!(jain > 0.0 && jain <= 1.0, "jain {jain}");
    }

    #[test]
    fn closed_loop_runs_fill_host_columns() {
        let mut open = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        open.noc.trace = mn_core::TraceConfig::Counters;
        let mut config = open.clone();
        config.noc.ecn_threshold = 4;
        config.host.policy = mn_core::WindowPolicyKind::Ecn;
        let record = simulated_record(config, Workload::Dct);
        let goodput = float(&record, "goodput_per_us");
        assert!(goodput > 0.0, "goodput {goodput}");
        let steady = float(&record, "steady_window");
        assert!(steady >= 1.0, "steady window {steady}");
        let marked = float(&record, "marked_fraction");
        assert!((0.0..=1.0).contains(&marked), "marked {marked}");

        // Open-loop traced runs still report goodput but no window stats.
        let steady = float(&simulated_record(open, Workload::Dct), "steady_window");
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
