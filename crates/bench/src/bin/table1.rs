//! Table 1: maximum DDR bus speed vs. DIMMs per channel, plus the
//! capacity/bandwidth tradeoff and the pin-cost comparison that motivate
//! memory networks (§1–2.1).

#![warn(unreachable_pub)]

use mn_campaign::{write_records, OutputFormat, Record, Value};
use mn_mem::ddr::{
    channel_bandwidth_gbs, cube_links_for_pin_budget, max_speed_mhz, DdrGeneration, DdrSystem,
    CUBE_LINK_BANDWIDTH_GBS, MAX_DPC,
};

fn kv(section: &str, key: String, value: String) -> Record {
    vec![
        ("section", Value::Str(section.to_string())),
        ("key", Value::Str(key)),
        ("value", Value::Str(value)),
    ]
}

fn main() {
    let format = OutputFormat::from_args();
    let mut records = Vec::new();

    println!("== Table 1: max memory interface speed vs DIMMs per channel ==");
    println!("{:<16} {:>10} {:>10}", "Number of DPC", "DDR3", "DDR4");
    for dpc in 1..=MAX_DPC {
        let d3 = max_speed_mhz(DdrGeneration::Ddr3, dpc).expect("supported");
        let d4 = max_speed_mhz(DdrGeneration::Ddr4, dpc).expect("supported");
        println!("{dpc:<16} {d3:>7} MHz {d4:>7} MHz");
        records.push(kv(
            "max_speed",
            format!("dpc={dpc}"),
            format!("ddr3={d3}MHz ddr4={d4}MHz"),
        ));
    }

    println!("\n== capacity/bandwidth tradeoff (4-channel DDR3 server, 32 GB DIMMs) ==");
    println!(
        "{:<6} {:>12} {:>14} {:>16}",
        "DPC", "capacity", "bandwidth", "GB/s per 100GB"
    );
    for dpc in 1..=MAX_DPC {
        let sys = DdrSystem {
            generation: DdrGeneration::Ddr3,
            channels: 4,
            dpc,
            dimm_gb: 32,
        };
        let bw = sys.bandwidth_gbs().expect("supported");
        let per = sys.bandwidth_per_gb().expect("supported") * 100.0;
        println!(
            "{:<6} {:>9} GB {:>9.1} GB/s {:>16.2}",
            dpc,
            sys.capacity_gb(),
            bw,
            per,
        );
        records.push(kv(
            "capacity_bandwidth",
            format!("dpc={dpc}"),
            format!(
                "capacity={}GB bandwidth={bw:.1}GB/s per_100gb={per:.2}",
                sys.capacity_gb()
            ),
        ));
    }

    println!("\n== pin-cost comparison (§1, §2.2) ==");
    let server = DdrSystem {
        generation: DdrGeneration::Ddr4,
        channels: 4,
        dpc: 2,
        dimm_gb: 32,
    };
    let links = cube_links_for_pin_budget(DdrGeneration::Ddr4, 4);
    println!(
        "4-channel DDR4: {} pins, {:.1} GB/s peak",
        server.pins(),
        server.bandwidth_gbs().expect("supported")
    );
    println!(
        "same pins as memory-cube links: {} links, {:.0} GB/s peak ({}x channels)",
        links,
        f64::from(links) * CUBE_LINK_BANDWIDTH_GBS,
        links / 4
    );
    records.push(kv(
        "pin_cost",
        "ddr4_4ch".to_string(),
        format!(
            "pins={} bandwidth={:.1}GB/s",
            server.pins(),
            server.bandwidth_gbs().expect("supported")
        ),
    ));
    records.push(kv(
        "pin_cost",
        "cube_links_same_pins".to_string(),
        format!(
            "links={links} bandwidth={:.0}GB/s",
            f64::from(links) * CUBE_LINK_BANDWIDTH_GBS
        ),
    ));
    let _ = channel_bandwidth_gbs(2133);

    write_records(&mut std::io::stdout().lock(), format, &records)
        .expect("stdout closed mid-emission");
}
