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

/// Decodes [`encode_result`] output. Anything else is `None`, which the
/// cache treats as a miss: a line that is not the next key it writes, a
/// missing or extra line, a value that does not parse whole, an energy
/// that is negative or not finite, more than 64 histogram buckets, or a
/// text without the final newline — so a torn entry never decodes.
///
/// One pass over the bytes: each value is read in place up to its
/// delimiter, and the histogram's buckets go into a fixed array.
pub fn decode_result(text: &str) -> Option<RunResult> {
    let mut c = Cursor { text, pos: 0 };
    let label = c.key("label")?.line()?.to_string();
    let workload = c.key("workload")?.line()?.to_string();
    let wall = SimTime::from_ps(c.key("wall_ps")?.dec(b'\n')?);
    let to_memory = c.key("to_mem")?.acc()?;
    let in_memory = c.key("in_mem")?.acc()?;
    let from_memory = c.key("from_mem")?.acc()?;
    c.key("energy")?;
    let network = c.energy(b',')?;
    let read = c.energy(b',')?;
    let write = c.energy(b'\n')?;
    let reads = c.key("reads")?.dec(b'\n')?;
    let writes = c.key("writes")?.dec(b'\n')?;
    let row_hit_rate = c.key("row_hit_rate")?.f64_bits(b'\n')?;
    let avg_hops = c.key("avg_hops")?.f64_bits(b'\n')?;
    c.key("hist")?;
    let mut counts = [0u64; 64];
    let mut buckets = 0;
    loop {
        let (value, end) = c.value()?;
        *counts.get_mut(buckets)? = value.parse().ok()?;
        buckets += 1;
        if end == b'\n' {
            break;
        }
    }
    if c.pos != text.len() {
        return None;
    }
    Some(RunResult {
        label,
        workload,
        wall,
        breakdown: LatencyBreakdown {
            to_memory,
            in_memory,
            from_memory,
        },
        energy: EnergyBreakdown {
            network,
            read,
            write,
        },
        reads,
        writes,
        row_hit_rate,
        avg_hops,
        read_latency: Histogram::from_bucket_counts(&counts[..buckets])?,
        // Telemetry is never cached (see encode_result): a cache hit
        // reports the simulated result without the observational rollup.
        telemetry: None,
    })
}

/// A read position in [`decode_result`]'s input. Every method consumes
/// what it reads and returns `None` where the text stops matching the
/// encoding.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Consumes `key=`, which must start here.
    fn key(&mut self, key: &str) -> Option<&mut Self> {
        let rest = &self.text.as_bytes()[self.pos..];
        let after = rest.strip_prefix(key.as_bytes())?.strip_prefix(b"=")?;
        self.pos += rest.len() - after.len();
        Some(self)
    }

    /// The rest of the line, whatever it holds, and its newline.
    fn line(&mut self) -> Option<&'a str> {
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'\n')?;
        self.pos = start + len + 1;
        // Both ends sit next to ASCII bytes, so this never splits a char.
        Some(&self.text[start..start + len])
    }

    /// The next value of a comma-separated line and the delimiter that
    /// ended it (`,` or `\n`), both consumed.
    fn value(&mut self) -> Option<(&'a str, u8)> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let len = bytes[start..]
            .iter()
            .position(|&b| b == b',' || b == b'\n')?;
        self.pos = start + len + 1;
        Some((&self.text[start..start + len], bytes[start + len]))
    }

    /// The next value, which must end with `end`.
    fn field(&mut self, end: u8) -> Option<&'a str> {
        let (value, found) = self.value()?;
        (found == end).then_some(value)
    }

    /// A decimal `u64` ending with `end`.
    fn dec(&mut self, end: u8) -> Option<u64> {
        self.field(end)?.parse().ok()
    }

    /// An `f64` by its hex bit pattern, ending with `end`.
    fn f64_bits(&mut self, end: u8) -> Option<f64> {
        let bits = u64::from_str_radix(self.field(end)?, 16).ok()?;
        Some(f64::from_bits(bits))
    }

    /// An energy by its hex bit pattern, ending with `end`: `None` for
    /// the bits [`EnergyPj::from_pj`] refuses.
    fn energy(&mut self, end: u8) -> Option<EnergyPj> {
        let pj = self.f64_bits(end)?;
        (pj.is_finite() && pj >= 0.0).then(|| EnergyPj::from_pj(pj))
    }

    /// An accumulator's four raw parts and the line's newline.
    fn acc(&mut self) -> Option<Accumulator> {
        let sum = self.field(b',')?.parse().ok()?;
        let count = self.dec(b',')?;
        let min = self.dec(b',')?;
        let max = self.dec(b'\n')?;
        Some(Accumulator::from_raw_parts(sum, count, min, max))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mn_sim::{SimDuration, SimRng};

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

    /// The line-splitting decoder that [`decode_result`] replaced, kept
    /// as the reference it must agree with. It panics on an energy that
    /// is negative or not finite, which [`reference`] counts as `None`.
    fn reference_decode(text: &str) -> Option<RunResult> {
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

    /// [`reference_decode`]'s verdict as encoded bytes, or `Err` if it
    /// panicked: a panic is the reference's way of saying `None`.
    fn reference(text: &str) -> std::thread::Result<Option<String>> {
        std::panic::catch_unwind(|| reference_decode(text).map(|r| encode_result(&r)))
    }

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

    /// `sample()`'s encoding with energy field `field` (0 network,
    /// 1 read, 2 write) replaced by the hex of `bits`.
    fn with_energy_bits(field: usize, bits: u64) -> String {
        let text = encode_result(&sample());
        let line = text.lines().find(|l| l.starts_with("energy=")).unwrap();
        let mut values: Vec<String> = line["energy=".len()..]
            .split(',')
            .map(str::to_string)
            .collect();
        values[field] = format!("{bits:016x}");
        text.replace(line, &format!("energy={}", values.join(",")))
    }

    #[test]
    fn negative_or_non_finite_energy_is_none() {
        let sample = sample();
        let energy = &sample.energy;
        let fields = [energy.network, energy.read, energy.write];
        for (field, pj) in fields.iter().enumerate() {
            let sign = pj.as_pj().to_bits() | 1 << 63;
            for bits in [sign, f64::NAN.to_bits(), f64::INFINITY.to_bits()] {
                let text = with_energy_bits(field, bits);
                assert!(
                    decode_result(&text).is_none(),
                    "field {field}, bits {bits:016x}"
                );
            }
        }
        // Negative zero is an energy `EnergyPj` takes: it decodes.
        assert!(decode_result(&with_energy_bits(0, 1 << 63)).is_some());
    }

    #[test]
    fn plus_signs_and_padding_parse_as_before() {
        // `str::parse` accepts one leading `+` and any leading zeros; the
        // cursor must too, and no more.
        let text = encode_result(&sample());
        for (from, to, decodes) in [
            ("reads=4321", "reads=+4321", true),
            ("reads=4321", "reads=0004321", true),
            ("reads=4321", "reads=++4321", false),
            ("reads=4321", "reads=+", false),
            ("reads=4321", "reads=-4321", false),
            ("reads=4321", "reads=", false),
            ("reads=4321", "reads=18446744073709551616", false),
            ("writes=1234", "writes=18446744073709551615", true),
            ("avg_hops=", "avg_hops=+0", true),
            ("avg_hops=", "avg_hops=10", false),
        ] {
            let mutated = text.replacen(from, to, 1);
            assert_eq!(decode_result(&mutated).is_some(), decodes, "{to}");
            assert_eq!(reference(&mutated).unwrap().is_some(), decodes, "{to}");
        }
    }

    /// The bodies of the committed cache entries: each file after its
    /// header and fingerprint lines.
    fn committed_bodies() -> Vec<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/cache");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("the committed cache")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "mnres"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).unwrap();
                text.splitn(3, '\n').nth(2).unwrap().to_string()
            })
            .collect()
    }

    /// One random edit of `chars`, drawn from `rng`: a swap, deletion,
    /// insertion, replacement, truncation or run of extra digits.
    pub(crate) fn mutate(chars: &mut Vec<char>, rng: &mut SimRng) {
        const ALPHABET: [char; 16] = [
            '0', '1', '7', '9', 'a', 'c', 'f', 'F', 'x', '+', '-', ',', '=', '\n', ' ', 'é',
        ];
        let len = chars.len() as u64;
        let at = |rng: &mut SimRng| rng.below(len.max(1)) as usize;
        match rng.below(6) {
            0 if len > 1 => {
                let (i, j) = (at(rng), at(rng));
                chars.swap(i, j);
            }
            1 if len > 0 => {
                chars.remove(at(rng));
            }
            2 => {
                let c = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
                chars.insert(rng.below(len + 1) as usize, c);
            }
            3 => chars.truncate(rng.below(len + 1) as usize),
            4 => {
                let i = rng.below(len + 1) as usize;
                let run = rng.range(1, 21) as usize;
                chars.splice(i..i, std::iter::repeat_n('9', run));
            }
            _ if len > 0 => {
                let c = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
                let i = at(rng);
                chars[i] = c;
            }
            _ => {}
        }
    }

    #[test]
    fn the_cursor_decoder_agrees_with_the_line_splitting_one() {
        let bodies = committed_bodies();
        assert!(bodies.len() >= 700, "{} committed entries", bodies.len());
        for body in &bodies {
            let decoded = decode_result(body).map(|r| encode_result(&r));
            assert_eq!(decoded.as_deref(), Some(body.as_str()));
            assert_eq!(decoded, reference(body).unwrap());
        }
        // Seeded mutations of every body: one to three edits each, and
        // the two decoders must agree on `Some`/`None` and on the bytes.
        let mut rng = SimRng::seed_from(0x00DE_C0DE);
        let (mut tried, mut decoded, mut panics) = (0u32, 0u32, 0u32);
        for body in &bodies {
            let original: Vec<char> = body.chars().collect();
            for _ in 0..24 {
                let mut chars = original.clone();
                for _ in 0..rng.range(1, 4) {
                    mutate(&mut chars, &mut rng);
                }
                let text: String = chars.into_iter().collect();
                let ours = decode_result(&text).map(|r| encode_result(&r));
                let theirs = reference(&text);
                panics += u32::from(theirs.is_err());
                assert_eq!(ours, theirs.unwrap_or(None), "input {text:?}");
                tried += 1;
                decoded += u32::from(ours.is_some());
            }
        }
        // Both verdicts are exercised: some edits keep a valid encoding
        // (a swap of equal digits, a `+`, a leading zero) and most do not.
        assert!(decoded > 0 && decoded < tried, "{decoded} of {tried}");
        // And some reach the energies the reference panics on.
        assert!(panics > 0, "no edit made a negative or non-finite energy");
    }
}
