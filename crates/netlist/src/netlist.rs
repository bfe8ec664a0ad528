use crate::{Cell, CellId, Net, NetId, NetlistError, Pin, PinDirection, PinId};
use serde::{Deserialize, Serialize};

/// Nets with more pins than this are left out of the star expansion
/// ([`Netlist::star_adjacency`]), as is standard for clock/reset-like
/// high-fanout nets.
pub const MAX_STAR_NET_DEGREE: usize = 48;

/// A hypergraph netlist: cells connected by multi-pin nets.
///
/// All vectors are indexed by the corresponding id types. Construction goes
/// through [`crate::NetlistBuilder`] or [`crate::generate`]; after
/// construction a netlist is immutable, which lets every downstream engine
/// cache derived structure safely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    /// pins_of_cell[c] lists the pins owned by cell c.
    pins_of_cell: Vec<Vec<PinId>>,
}

impl Netlist {
    pub(crate) fn from_parts(
        name: String,
        cells: Vec<Cell>,
        nets: Vec<Net>,
        pins: Vec<Pin>,
    ) -> Result<Self, NetlistError> {
        for (i, pin) in pins.iter().enumerate() {
            if pin.cell.index() >= cells.len() {
                return Err(NetlistError::UnknownCell(pin.cell.0));
            }
            if pin.net.index() >= nets.len() {
                return Err(NetlistError::UnknownNet(pin.net.0));
            }
            debug_assert!(nets[pin.net.index()].pins.contains(&PinId(i as u32)));
        }
        for (i, net) in nets.iter().enumerate() {
            if net.degree() < 2 {
                return Err(NetlistError::DegenerateNet(i as u32));
            }
        }
        let mut pins_of_cell = vec![Vec::new(); cells.len()];
        for (i, pin) in pins.iter().enumerate() {
            pins_of_cell[pin.cell.index()].push(PinId(i as u32));
        }
        Ok(Self {
            name,
            cells,
            nets,
            pins,
            pins_of_cell,
        })
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells (including macros and IO pads).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Number of movable (non-macro, non-IO) cells.
    pub fn num_movable(&self) -> usize {
        self.cells.iter().filter(|c| c.movable()).count()
    }

    /// Number of IO pads.
    pub fn num_ios(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.class == crate::CellClass::Io)
            .count()
    }

    /// Look up a cell.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Look up a net.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Look up a pin.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Iterate over all cells in id order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = &Cell> {
        self.cells.iter()
    }

    /// Iterate over all cell ids.
    pub fn cell_ids(&self) -> impl ExactSizeIterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterate over all nets in id order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = &Net> {
        self.nets.iter()
    }

    /// Iterate over all net ids.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Iterate over all pins in id order.
    pub fn pins(&self) -> impl ExactSizeIterator<Item = &Pin> {
        self.pins.iter()
    }

    /// Pins owned by `cell`.
    #[inline]
    pub fn cell_pins(&self, cell: CellId) -> &[PinId] {
        &self.pins_of_cell[cell.index()]
    }

    /// The driver pin of `net` (first `Output` pin), if any.
    pub fn net_driver(&self, net: NetId) -> Option<PinId> {
        self.nets[net.index()]
            .pins
            .iter()
            .copied()
            .find(|&p| self.pins[p.index()].direction == PinDirection::Output)
    }

    /// Cells on `net`, with duplicates removed, in first-seen order.
    pub fn net_cells(&self, net: NetId) -> Vec<CellId> {
        let mut out = Vec::with_capacity(self.nets[net.index()].degree());
        for &p in &self.nets[net.index()].pins {
            let c = self.pins[p.index()].cell;
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Build a symmetric clique-expanded adjacency list over cells.
    ///
    /// Each net of degree `d` contributes edges with weight `w / (d - 1)`
    /// between its driver and every sink (star expansion), which keeps the
    /// graph sparse for high-fanout nets. Clock nets and nets with degree
    /// above [`MAX_STAR_NET_DEGREE`] are skipped.
    pub fn star_adjacency(&self) -> Vec<Vec<(CellId, f64)>> {
        let mut adj: Vec<Vec<(CellId, f64)>> = vec![Vec::new(); self.cells.len()];
        for net_id in self.net_ids() {
            let net = self.net(net_id);
            if net.degree() > MAX_STAR_NET_DEGREE || net.is_clock {
                continue;
            }
            let cells = self.net_cells(net_id);
            if cells.len() < 2 {
                continue;
            }
            let hub = match self.net_driver(net_id) {
                Some(p) => self.pin(p).cell,
                None => cells[0],
            };
            let w = net.weight / (cells.len() - 1) as f64;
            for &c in &cells {
                if c != hub {
                    adj[hub.index()].push((c, w));
                    adj[c.index()].push((hub, w));
                }
            }
        }
        adj
    }

    /// The star expansion as an undirected edge list for the `f32` graph
    /// operators: each edge `(u, v, w)` of [`Netlist::star_adjacency`] once,
    /// with `u < v`, in row order.
    pub fn star_edges(&self) -> Vec<(usize, usize, f32)> {
        let mut edges = Vec::new();
        for (u, peers) in self.star_adjacency().iter().enumerate() {
            for &(v, w) in peers {
                if u < v.index() {
                    edges.push((u, v.index(), w as f32));
                }
            }
        }
        edges
    }

    /// Total weighted degree of each cell (number of net connections).
    pub fn cell_degrees(&self) -> Vec<f64> {
        let mut deg = vec![0.0; self.cells.len()];
        for net_id in self.net_ids() {
            for c in self.net_cells(net_id) {
                deg[c.index()] += self.net(net_id).weight;
            }
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use crate::{CellClass, NetlistBuilder, PinDirection};

    fn tiny() -> crate::Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.add_cell_simple("a", CellClass::Combinational);
        let c = b.add_cell_simple("c", CellClass::Combinational);
        let d = b.add_cell_simple("d", CellClass::Sequential);
        b.add_net("n0", &[(a, PinDirection::Output), (c, PinDirection::Input)]);
        b.add_net(
            "n1",
            &[
                (c, PinDirection::Output),
                (d, PinDirection::Input),
                (a, PinDirection::Input),
            ],
        );
        b.finish().expect("valid netlist")
    }

    #[test]
    fn counts_and_lookups() {
        let n = tiny();
        assert_eq!(n.num_cells(), 3);
        assert_eq!(n.num_nets(), 2);
        assert_eq!(n.num_pins(), 5);
        assert_eq!(n.num_movable(), 3);
        assert_eq!(n.cell(crate::CellId(0)).name, "a");
        assert_eq!(n.net(crate::NetId(1)).degree(), 3);
    }

    #[test]
    fn driver_and_net_cells() {
        let n = tiny();
        let drv = n.net_driver(crate::NetId(1)).expect("driver");
        assert_eq!(n.pin(drv).cell, crate::CellId(1));
        let cells = n.net_cells(crate::NetId(1));
        assert_eq!(cells.len(), 3);
    }

    #[test]
    fn star_adjacency_is_symmetric() {
        let n = tiny();
        let adj = n.star_adjacency();
        for (u, edges) in adj.iter().enumerate() {
            for &(v, w) in edges {
                assert!(
                    adj[v.index()]
                        .iter()
                        .any(|&(x, xw)| x.index() == u && (xw - w).abs() < 1e-12),
                    "edge ({u}, {v}) not mirrored"
                );
            }
        }
    }

    #[test]
    fn degrees_count_net_incidence() {
        let n = tiny();
        let deg = n.cell_degrees();
        assert_eq!(deg, vec![2.0, 2.0, 1.0]);
    }
}
