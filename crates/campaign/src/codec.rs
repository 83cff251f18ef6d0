//! Lossless, dependency-free serialization of [`RunResult`].
//!
//! The cache must round-trip results *exactly* — a cached point has to be
//! indistinguishable from a freshly simulated one — so floats are encoded
//! by bit pattern and the statistics types through their raw parts, in a
//! line-oriented `key=value` text format. Human-facing JSON/CSV output
//! lives in [`crate::sink`]; this module is only for machine round-trips
//! (and for the determinism tests, which compare encoded strings).

use mn_core::{EnergyBreakdown, LatencyBreakdown, RunResult};
use mn_mem::EnergyPj;
use mn_sim::{Accumulator, Histogram, SimTime};

/// Encodes a result exactly. The output is stable across runs and
/// platforms: equal strings if and only if the results are bit-identical.
///
/// The telemetry rollup is deliberately **not** encoded: it is purely
/// observational, regenerable by re-running the point with tracing on
/// (and the cache off), and excluding it keeps traced and untraced runs
/// of the same point byte-identical here — which is what lets them
/// share one cache entry (the fingerprint excludes the trace mode).
pub fn encode_result(result: &RunResult) -> String {
    let acc = |a: &Accumulator| {
        let (sum, count, min, max) = a.raw_parts();
        format!("{sum},{count},{min},{max}")
    };
    let hist: Vec<String> = result
        .read_latency
        .bucket_counts()
        .iter()
        .map(u64::to_string)
        .collect();
    format!(
        "label={}\nworkload={}\nwall_ps={}\nto_mem={}\nin_mem={}\nfrom_mem={}\n\
         energy={:016x},{:016x},{:016x}\nreads={}\nwrites={}\nrow_hit_rate={:016x}\n\
         avg_hops={:016x}\nhist={}\n",
        result.label,
        result.workload,
        result.wall.as_ps(),
        acc(&result.breakdown.to_memory),
        acc(&result.breakdown.in_memory),
        acc(&result.breakdown.from_memory),
        result.energy.network.as_pj().to_bits(),
        result.energy.read.as_pj().to_bits(),
        result.energy.write.as_pj().to_bits(),
        result.reads,
        result.writes,
        result.row_hit_rate.to_bits(),
        result.avg_hops.to_bits(),
        hist.join(","),
    )
}

/// Decodes [`encode_result`] output. Returns `None` on any malformed or
/// incomplete input (the cache treats that as a miss).
pub fn decode_result(text: &str) -> Option<RunResult> {
    let mut label = None;
    let mut workload = None;
    let mut wall = None;
    let mut to_mem = None;
    let mut in_mem = None;
    let mut from_mem = None;
    let mut energy = None;
    let mut reads = None;
    let mut writes = None;
    let mut row_hit_rate = None;
    let mut avg_hops = None;
    let mut hist = None;

    for line in text.lines() {
        let (key, value) = line.split_once('=')?;
        match key {
            "label" => label = Some(value.to_string()),
            "workload" => workload = Some(value.to_string()),
            "wall_ps" => wall = Some(SimTime::from_ps(value.parse().ok()?)),
            "to_mem" => to_mem = Some(parse_acc(value)?),
            "in_mem" => in_mem = Some(parse_acc(value)?),
            "from_mem" => from_mem = Some(parse_acc(value)?),
            "energy" => {
                let mut parts = value.split(',');
                let mut next = || parse_f64_bits(parts.next()?);
                energy = Some(EnergyBreakdown {
                    network: EnergyPj::from_pj(next()?),
                    read: EnergyPj::from_pj(next()?),
                    write: EnergyPj::from_pj(next()?),
                });
            }
            "reads" => reads = Some(value.parse().ok()?),
            "writes" => writes = Some(value.parse().ok()?),
            "row_hit_rate" => row_hit_rate = Some(parse_f64_bits(value)?),
            "avg_hops" => avg_hops = Some(parse_f64_bits(value)?),
            "hist" => {
                let counts: Option<Vec<u64>> = value.split(',').map(|c| c.parse().ok()).collect();
                hist = Some(Histogram::from_bucket_counts(&counts?)?);
            }
            _ => return None,
        }
    }

    Some(RunResult {
        label: label?,
        workload: workload?,
        wall: wall?,
        breakdown: LatencyBreakdown {
            to_memory: to_mem?,
            in_memory: in_mem?,
            from_memory: from_mem?,
        },
        energy: energy?,
        reads: reads?,
        writes: writes?,
        row_hit_rate: row_hit_rate?,
        avg_hops: avg_hops?,
        read_latency: hist?,
        // Telemetry is never cached (see encode_result): a cache hit
        // reports the simulated result without the observational rollup.
        telemetry: None,
    })
}

fn parse_acc(value: &str) -> Option<Accumulator> {
    let mut parts = value.split(',');
    let sum: u128 = parts.next()?.parse().ok()?;
    let count: u64 = parts.next()?.parse().ok()?;
    let min: u64 = parts.next()?.parse().ok()?;
    let max: u64 = parts.next()?.parse().ok()?;
    parts
        .next()
        .is_none()
        .then(|| Accumulator::from_raw_parts(sum, count, min, max))
}

fn parse_f64_bits(value: &str) -> Option<f64> {
    Some(f64::from_bits(u64::from_str_radix(value, 16).ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_sim::SimDuration;

    fn sample() -> RunResult {
        let mut breakdown = LatencyBreakdown::default();
        breakdown.to_memory.record(SimDuration::from_ns(60));
        breakdown.in_memory.record(SimDuration::from_ns(20));
        breakdown.from_memory.record(SimDuration::from_ns(21));
        let mut read_latency = Histogram::new();
        read_latency.record(SimDuration::from_ns(101));
        read_latency.record(SimDuration::from_us(3));
        RunResult {
            label: "50%-T (NVM-L)".into(),
            workload: "DCT".into(),
            wall: SimTime::from_ps(123_456_789),
            breakdown,
            energy: EnergyBreakdown {
                network: EnergyPj::from_pj(10.5),
                read: EnergyPj::from_pj(0.125),
                write: EnergyPj::from_pj(7.75),
            },
            reads: 4321,
            writes: 1234,
            row_hit_rate: 0.625,
            avg_hops: 3.875,
            read_latency,
            telemetry: None,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let original = sample();
        let decoded = decode_result(&encode_result(&original)).expect("decodes");
        assert_eq!(encode_result(&decoded), encode_result(&original));
        assert_eq!(decoded.label, original.label);
        assert_eq!(decoded.wall, original.wall);
        assert_eq!(decoded.reads, original.reads);
        assert_eq!(
            decoded.row_hit_rate.to_bits(),
            original.row_hit_rate.to_bits()
        );
        assert_eq!(
            decoded.read_latency.quantile(0.5),
            original.read_latency.quantile(0.5)
        );
        assert_eq!(
            decoded.breakdown.to_memory.raw_parts(),
            original.breakdown.to_memory.raw_parts()
        );
    }

    #[test]
    fn telemetry_does_not_change_the_encoding() {
        // Traced and untraced runs of one point must share a cache
        // entry; the observational rollup stays out of the codec.
        let plain = sample();
        let mut traced = sample();
        traced.telemetry = Some(mn_core::TelemetrySummary::default());
        assert_eq!(encode_result(&plain), encode_result(&traced));
        let decoded = decode_result(&encode_result(&traced)).expect("decodes");
        assert!(decoded.telemetry.is_none());
    }

    #[test]
    fn malformed_input_is_none() {
        assert!(decode_result("").is_none());
        assert!(decode_result("label=x").is_none());
        let mut truncated = encode_result(&sample());
        truncated.truncate(truncated.len() / 2);
        // Either a parse failure or a missing field: never a panic.
        let _ = decode_result(&truncated);
        assert!(decode_result(&encode_result(&sample()).replace("reads=", "rodas=")).is_none());
    }

    /// Replaces the encoded `hist=` line of `sample()` with `hist`.
    fn with_hist(hist: &str) -> String {
        let text = encode_result(&sample());
        let start = text.find("hist=").expect("encoding has a histogram");
        let end = start + text[start..].find('\n').expect("line ends");
        format!("{}hist={hist}{}", &text[..start], &text[end..])
    }

    #[test]
    fn too_many_histogram_buckets_is_none() {
        assert!(decode_result(&with_hist(&vec!["0"; 64].join(","))).is_some());
        assert!(decode_result(&with_hist(&vec!["1"; 70].join(","))).is_none());
    }

    #[test]
    fn overflowing_histogram_total_is_none() {
        assert!(decode_result(&with_hist("18446744073709551615,0")).is_some());
        assert!(decode_result(&with_hist("18446744073709551615,1")).is_none());
    }
}
