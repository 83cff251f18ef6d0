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

/// The keys [`encode_result`] writes, one per line, in this order.
const KEYS: [&str; 12] = [
    "label",
    "workload",
    "wall_ps",
    "to_mem",
    "in_mem",
    "from_mem",
    "energy",
    "reads",
    "writes",
    "row_hit_rate",
    "avg_hops",
    "hist",
];

/// Decodes [`encode_result`] output. Anything else is `None`, which the
/// cache treats as a miss: a line that is not the next key it writes, a
/// missing or extra line, a value that does not parse whole, or a text
/// without the final newline — so a torn entry never decodes.
pub fn decode_result(text: &str) -> Option<RunResult> {
    let mut lines = text.strip_suffix('\n')?.split('\n');
    let mut values = [""; KEYS.len()];
    for (key, value) in KEYS.iter().zip(&mut values) {
        *value = lines.next()?.strip_prefix(key)?.strip_prefix('=')?;
    }
    if lines.next().is_some() {
        return None;
    }
    let [label, workload, wall, to_mem, in_mem, from_mem, energy, reads, writes, row_hit_rate, avg_hops, hist] =
        values;
    let counts: Option<Vec<u64>> = hist.split(',').map(|c| c.parse().ok()).collect();
    let mut energy = energy.split(',').map(parse_f64_bits);
    let (network, read, write) = (energy.next()??, energy.next()??, energy.next()??);
    if energy.next().is_some() {
        return None;
    }
    Some(RunResult {
        label: label.to_string(),
        workload: workload.to_string(),
        wall: SimTime::from_ps(wall.parse().ok()?),
        breakdown: LatencyBreakdown {
            to_memory: parse_acc(to_mem)?,
            in_memory: parse_acc(in_mem)?,
            from_memory: parse_acc(from_mem)?,
        },
        energy: EnergyBreakdown {
            network: EnergyPj::from_pj(network),
            read: EnergyPj::from_pj(read),
            write: EnergyPj::from_pj(write),
        },
        reads: reads.parse().ok()?,
        writes: writes.parse().ok()?,
        row_hit_rate: parse_f64_bits(row_hit_rate)?,
        avg_hops: parse_f64_bits(avg_hops)?,
        read_latency: Histogram::from_bucket_counts(&counts?)?,
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
        traced.telemetry = Some(Box::default());
        assert_eq!(encode_result(&plain), encode_result(&traced));
        let decoded = decode_result(&encode_result(&traced)).expect("decodes");
        assert!(decoded.telemetry.is_none());
    }

    #[test]
    fn malformed_input_is_none() {
        assert!(decode_result("").is_none());
        assert!(decode_result("label=x").is_none());
        // A torn write never decodes: not even a prefix that ends inside
        // the `hist=` line, whose missing buckets would read as zeros.
        let text = encode_result(&sample());
        for len in 0..text.len() {
            assert!(
                decode_result(&text[..len]).is_none(),
                "prefix of {len} bytes"
            );
        }
        assert!(decode_result(&text.replace("reads=", "rodas=")).is_none());
        // Extra fields and repeated keys are malformed too, not ignored
        // or last-one-wins.
        let energy = text.lines().find(|l| l.starts_with("energy=")).unwrap();
        let four = text.replace(energy, &format!("{energy},0000000000000000"));
        assert!(decode_result(&four).is_none(), "a fourth energy value");
        assert!(
            decode_result(&format!("{text}reads=7\n")).is_none(),
            "reads twice"
        );
        assert!(
            decode_result(&format!("reads=7\n{text}")).is_none(),
            "reads twice"
        );
        assert!(
            decode_result(&format!("{text}{energy}\n")).is_none(),
            "energy twice"
        );
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
