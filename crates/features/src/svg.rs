//! SVG layout rendering: the "post-route layout" panels of the paper's
//! Fig. 6, as scalable vector graphics with both dies side by side and an
//! optional congestion-heatmap underlay.

use crate::GridMap;
use dco_netlist::{CellClass, Netlist, Placement3, Tier};
use std::fmt::Write as _;

/// Pixels per micron.
const SCALE: f64 = 12.0;
/// Gap between the two die panels, in pixels.
const PANEL_GAP: f64 = 24.0;

/// Rendering options.
#[derive(Debug, Clone, Default)]
pub struct SvgOptions {
    /// Optional per-die congestion maps `[bottom, top]` drawn under the
    /// cells as a translucent heatmap.
    pub congestion: Option<[GridMap; 2]>,
}

/// Render both dies of a placement as one SVG document.
///
/// Cells are colored by class (standard cells teal, sequential indigo,
/// macros grey, IOs orange); the left panel is the bottom die, the right
/// panel the top die. Y is flipped so the origin is bottom-left, matching
/// chip coordinates.
pub fn render_layout_svg(
    netlist: &Netlist,
    placement: &Placement3,
    die: &dco_netlist::Die,
    options: &SvgOptions,
) -> String {
    let s = SCALE;
    let (pw, ph) = (die.width * s, die.height * s);
    let total_w = pw * 2.0 + PANEL_GAP;
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        total_w, ph, total_w, ph
    );
    for (tier, x_off) in [(Tier::Bottom, 0.0), (Tier::Top, pw + PANEL_GAP)] {
        let _ = writeln!(
            out,
            r##"<rect x="{x_off:.1}" y="0" width="{pw:.1}" height="{ph:.1}" fill="#fafafa" stroke="#444"/>"##
        );
        // congestion underlay
        if let Some(cong) = &options.congestion {
            let m = &cong[usize::from(tier == Tier::Top)];
            let peak = m.max().max(1e-9);
            let (cw, chh) = (pw / m.nx() as f64, ph / m.ny() as f64);
            for row in 0..m.ny() {
                for col in 0..m.nx() {
                    let v = m.get(col, row) / peak;
                    if v <= 0.02 {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        r##"<rect x="{:.1}" y="{:.1}" width="{cw:.1}" height="{chh:.1}" fill="rgb(255,{:.0},{:.0})" fill-opacity="0.55"/>"##,
                        x_off + col as f64 * cw,
                        ph - (row + 1) as f64 * chh,
                        220.0 * (1.0 - f64::from(v)),
                        120.0 * (1.0 - f64::from(v)),
                    );
                }
            }
        }
        // cells
        for id in netlist.cell_ids() {
            if placement.tier(id) != tier {
                continue;
            }
            let cell = netlist.cell(id);
            let color = match cell.class {
                CellClass::Combinational => "#2a9d8f",
                CellClass::Sequential => "#5a4fcf",
                CellClass::Macro => "#8d99ae",
                CellClass::Io => "#e76f51",
            };
            let _ = writeln!(
                out,
                r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{color}" fill-opacity="0.8"/>"#,
                x_off + placement.x(id) * s,
                ph - (placement.y(id) + cell.height) * s,
                (cell.width * s).max(0.5),
                (cell.height * s).max(0.5),
            );
        }
        let label = if tier == Tier::Bottom {
            "bottom die"
        } else {
            "top die"
        };
        let _ = writeln!(
            out,
            r##"<text x="{:.1}" y="14" font-family="monospace" font-size="12" fill="#222">{label}</text>"##,
            x_off + 4.0
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_netlist::generate::{DesignProfile, GeneratorConfig};

    #[test]
    fn svg_contains_every_cell() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.01)
            .generate(1)
            .expect("gen");
        let svg = render_layout_svg(
            &d.netlist,
            &d.placement,
            &d.floorplan.die,
            &SvgOptions::default(),
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // 2 panel frames + 1 rect per cell (+ text labels)
        let rects = svg.matches("<rect").count();
        assert!(rects >= d.netlist.num_cells() + 2, "{rects} rects");
        assert_eq!(svg.matches("<text").count(), 2);
    }

    #[test]
    fn congestion_underlay_adds_heat_rects() {
        let d = GeneratorConfig::for_profile(DesignProfile::Dma)
            .with_scale(0.01)
            .generate(2)
            .expect("gen");
        let mut hot = GridMap::zeros(4, 4);
        hot.set(1, 1, 5.0);
        let plain = render_layout_svg(
            &d.netlist,
            &d.placement,
            &d.floorplan.die,
            &SvgOptions::default(),
        );
        let with_heat = render_layout_svg(
            &d.netlist,
            &d.placement,
            &d.floorplan.die,
            &SvgOptions {
                congestion: Some([hot.clone(), hot]),
            },
        );
        assert!(with_heat.matches("<rect").count() > plain.matches("<rect").count());
        assert!(with_heat.contains("fill-opacity=\"0.55\""));
    }
}
