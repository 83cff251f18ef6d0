//! Table 2: the evaluated system's configuration parameters, printed from
//! the live defaults so the table can never drift from the code.

#![warn(unreachable_pub)]

use mn_campaign::{write_records, OutputFormat, Record, Value};
use mn_core::SystemConfig;
use mn_mem::MemTechSpec;
use mn_topo::TopologyKind;

fn main() {
    let format = OutputFormat::from_args();
    let c = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).expect("baseline valid");
    let dram = MemTechSpec::dram_hbm();
    let nvm = MemTechSpec::nvm_pcm();

    println!("== Table 2: list of parameters in evaluated system ==");
    let rows: Vec<(&str, String)> = vec![
        ("Memory Ports", c.ports.to_string()),
        ("Total Memory", format!("{} GB (2 TB)", c.total_capacity_gb)),
        (
            "Stack Capacity",
            format!(
                "{} GB (DRAM), {} GB (NVM)",
                dram.capacity_gb, nvm.capacity_gb
            ),
        ),
        (
            "Banks / Stack",
            format!(
                "{} (4 quadrants x {})",
                c.banks_per_quadrant * 4,
                c.banks_per_quadrant
            ),
        ),
        (
            "DRAM Timings",
            format!(
                "tRCD={} tCL={} tRP={} tRAS={}",
                dram.timings.t_rcd, dram.timings.t_cl, dram.timings.t_rp, dram.timings.t_ras
            ),
        ),
        (
            "NVM Timings",
            format!(
                "tRCD={} tCL={} tWR={}",
                nvm.timings.t_rcd, nvm.timings.t_cl, nvm.timings.t_wr
            ),
        ),
        (
            "DRAM Read/Write",
            format!(
                "{} / {} pJ/bit",
                dram.energy.read_pj_per_bit, dram.energy.write_pj_per_bit
            ),
        ),
        (
            "NVM Read/Write",
            format!(
                "{} / {} pJ/bit",
                nvm.energy.read_pj_per_bit, nvm.energy.write_pj_per_bit
            ),
        ),
        (
            "Network Energy",
            format!("{} pJ/bit/hop", c.noc.transport_pj_per_bit_hop),
        ),
        (
            "Link",
            format!(
                "16 lanes @ 15 Gbps ({} ps/byte), SerDes {}",
                c.noc.external_link.ps_per_byte, c.noc.external_link.fixed_latency
            ),
        ),
        (
            "Packets",
            format!(
                "control {} B / data {} B",
                c.noc.control_bytes, c.noc.data_bytes
            ),
        ),
        ("Port interleave", format!("{} B", c.interleave_bytes)),
        ("Issue slots / port", c.window.to_string()),
        ("Host write buffer", c.host_write_buffer.to_string()),
    ];
    for (name, value) in &rows {
        println!("{name:<20} {value}");
    }

    let records: Vec<Record> = rows
        .into_iter()
        .map(|(name, value)| {
            vec![
                ("parameter", Value::Str(name.to_string())),
                ("value", Value::Str(value)),
            ]
        })
        .collect();
    write_records(&mut std::io::stdout().lock(), format, &records)
        .expect("stdout closed mid-emission");
}
