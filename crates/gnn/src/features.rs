//! Node features (Table II) and the normalized adjacency of the netlist
//! graph.

use dco_netlist::{Design, Placement3};
use dco_tensor::{Csr, Tensor};
use dco_timing::TimingReport;

/// Number of per-node input features: the eight handcrafted attributes of
/// Table II plus the three initial coordinates (x0, y0, z0).
pub const NUM_NODE_FEATURES: usize = 11;

/// Build the `[n, NUM_NODE_FEATURES]` node-feature matrix.
///
/// Columns (all max-normalized to roughly unit scale):
/// 0. worst slack of cell
/// 1. worst output slew
/// 2. worst input slew
/// 3. switching power of driving net (activity-weighted net load)
/// 4. cell internal power
/// 5. cell leakage power
/// 6. cell width
/// 7. cell height
/// 8. initial x (normalized by die width)
/// 9. initial y (normalized by die height)
/// 10. initial tier (0 bottom / 1 top)
pub fn build_node_features(
    design: &Design,
    placement: &Placement3,
    timing: &TimingReport,
) -> Tensor {
    let netlist = &design.netlist;
    let n = netlist.num_cells();
    let fp = &design.floorplan;
    let power = dco_timing::PowerAnalyzer::new(design);

    // Driving-net switching proxy: activity * net load (HPWL-based cap).
    let mut drv_power = vec![0.0f64; n];
    for net_id in netlist.net_ids() {
        let net = netlist.net(net_id);
        if net.is_clock {
            continue;
        }
        if let Some(drv) = netlist.net_driver(net_id) {
            let len = placement.net_hpwl(netlist, net_id);
            let cap = design.technology.wire_cap_per_um * len;
            drv_power[netlist.pin(drv).cell.index()] += power.activity(net_id) * cap;
        }
    }

    let mut cols: Vec<Vec<f64>> = (0..NUM_NODE_FEATURES)
        .map(|_| Vec::with_capacity(n))
        .collect();
    for id in netlist.cell_ids() {
        let i = id.index();
        let cell = netlist.cell(id);
        cols[0].push(timing.cell_slack[i]);
        cols[1].push(timing.cell_output_slew[i]);
        cols[2].push(timing.cell_input_slew[i]);
        cols[3].push(drv_power[i]);
        cols[4].push(cell.internal_energy);
        cols[5].push(cell.leakage);
        cols[6].push(cell.width);
        cols[7].push(cell.height);
        cols[8].push(placement.x(id) / fp.die.width);
        cols[9].push(placement.y(id) / fp.die.height);
        cols[10].push(placement.tier(id).as_z());
    }
    // Max-abs normalize the unbounded columns (0..8); 8..11 already in [0,1].
    let mut data = vec![0.0f32; n * NUM_NODE_FEATURES];
    for (c, col) in cols.iter().enumerate() {
        let scale = if c < 8 {
            col.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-9)
        } else {
            1.0
        };
        for (i, &v) in col.iter().enumerate() {
            data[i * NUM_NODE_FEATURES + c] = (v / scale) as f32;
        }
    }
    Tensor::from_vec(data, &[n, NUM_NODE_FEATURES])
}

/// Build the GCN propagation matrix: symmetrically normalized star-expanded
/// netlist adjacency ([`dco_netlist::Netlist::star_edges`]) with self loops.
pub fn build_adjacency(design: &Design) -> Csr {
    let netlist = &design.netlist;
    Csr::gcn_normalized(netlist.num_cells(), netlist.star_edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};
    use dco_timing::Sta;

    #[test]
    fn feature_matrix_shape_and_scale() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.02)
            .generate(1)
            .expect("gen");
        let timing = Sta::new(&d).analyze(&d.placement, None, None);
        let f = build_node_features(&d, &d.placement, &timing);
        assert_eq!(f.shape(), &[d.netlist.num_cells(), NUM_NODE_FEATURES]);
        // all magnitudes bounded by ~1 after normalization
        assert!(f.max() <= 1.0 + 1e-5);
        assert!(f.min() >= -1.0 - 1e-5);
        // width column is non-zero
        let widths: f32 = (0..d.netlist.num_cells()).map(|i| f.at(&[i, 6])).sum();
        assert!(widths > 0.0);
    }

    #[test]
    fn adjacency_covers_all_cells() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.02)
            .generate(2)
            .expect("gen");
        let a = build_adjacency(&d);
        assert_eq!(a.n_rows(), d.netlist.num_cells());
        // self loops guarantee nnz >= n
        assert!(a.nnz() >= d.netlist.num_cells());
    }
}
