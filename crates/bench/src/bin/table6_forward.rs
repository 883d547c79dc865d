//! Table 6: round-trip latency to route 16-byte packets through a
//! protocol forwarder (µs), TCP and UDP over Ethernet and ATM.
//!
//! SPIN's forwarder is an in-stack extension on the middle host; OSF/1's
//! is a user-level process splicing sockets, which adds boundary crossings
//! and copies per forwarded packet (and cannot forward control packets).

use spin_baseline::Osf1Model;
use spin_bench::workloads::{tcp_forward_rtt, udp_forward_rtt, Wiring};
use spin_bench::{render_table, us, JsonReport, Row};
use spin_net::Medium;
use spin_sal::MachineProfile;
use std::sync::Arc;

fn main() {
    let p = Arc::new(MachineProfile::alpha_axp_3000_400());
    let osf1 = Osf1Model::new(p);
    let none = Wiring::default();

    let spin_rows = [
        (
            "TCP Ethernet",
            tcp_forward_rtt(&none, Medium::Ethernet),
            1420.0,
            2080.0,
        ),
        (
            "TCP ATM",
            tcp_forward_rtt(&none, Medium::Atm),
            1067.0,
            1730.0,
        ),
        (
            "UDP Ethernet",
            udp_forward_rtt(&none, Medium::Ethernet, |_, _| {}).0,
            1344.0,
            1607.0,
        ),
        (
            "UDP ATM",
            udp_forward_rtt(&none, Medium::Atm, |_, _| {}).0,
            1024.0,
            1389.0,
        ),
    ];
    let mut rows = Vec::new();
    for (label, spin_ns, spin_paper, osf_paper) in spin_rows {
        rows.push(Row::new(&format!("{label}: SPIN"), spin_paper, us(spin_ns)));
        rows.push(Row::new(
            &format!("{label}: DEC OSF/1 (user-level)"),
            osf_paper,
            us(osf1.forwarder_round_trip(spin_ns, 16)),
        ));
    }
    print!(
        "{}",
        render_table(
            "Table 6: 16-byte round trip through a protocol forwarder",
            "µs",
            &rows
        )
    );
    println!("\nThe OSF/1 user-level splice also violates TCP end-to-end semantics (§5.3);");
    println!("SPIN's in-stack forwarder forwards SYN/FIN/RST and preserves them.");
    JsonReport::new(
        "table6_forward",
        "Table 6: 16-byte round trip through a protocol forwarder",
        "µs",
    )
    .rows(&rows)
    .write_if_requested();
}
