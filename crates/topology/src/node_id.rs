use core::fmt;
use core::num::NonZeroU32;

/// Identity of a node, numbered `1..=n` as in the paper.
///
/// `NodeId` is a thin newtype over [`NonZeroU32`]; the 1-based numbering
/// follows the paper's figures (node 1 is the root of the canonical cube),
/// so zero is naturally uninhabited and `Option<NodeId>` is 4 bytes — the
/// per-node `father`/`mandator` slots and every optional id in a message
/// payload cost one word of four, not eight. The 0-based value
/// `id.zero_based()` is what all the bit-arithmetic closed forms work on.
///
/// ```
/// use oc_topology::NodeId;
/// let id = NodeId::new(9);
/// assert_eq!(id.get(), 9);
/// assert_eq!(id.zero_based(), 8);
/// assert_eq!(id.to_string(), "9");
/// assert_eq!(core::mem::size_of::<Option<NodeId>>(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// Creates a node identity from its 1-based number.
    ///
    /// # Panics
    ///
    /// Panics if `id` is 0 — the paper numbers nodes from 1.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        match NonZeroU32::new(id) {
            Some(id) => NodeId(id),
            None => panic!("node identities are numbered from 1"),
        }
    }

    /// Creates a node identity from its 0-based index.
    ///
    /// ```
    /// use oc_topology::NodeId;
    /// assert_eq!(NodeId::from_zero_based(0), NodeId::new(1));
    /// ```
    #[must_use]
    pub fn from_zero_based(index: u32) -> Self {
        NodeId::new(index + 1)
    }

    /// The 1-based number of this node, as used in the paper's figures.
    #[must_use]
    pub fn get(self) -> u32 {
        self.0.get()
    }

    /// The 0-based index `id - 1`, used by the bit-arithmetic closed forms.
    #[must_use]
    pub fn zero_based(self) -> u32 {
        self.0.get() - 1
    }

    /// Iterates over all node identities of an `n`-node system: `1..=n`.
    ///
    /// ```
    /// use oc_topology::NodeId;
    /// let ids: Vec<u32> = NodeId::all(4).map(NodeId::get).collect();
    /// assert_eq!(ids, vec![1, 2, 3, 4]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> + Clone {
        (1..=n as u32).map(NodeId::new)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> u32 {
        id.get()
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.get() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_based_round_trip() {
        for raw in 1..100 {
            let id = NodeId::new(raw);
            assert_eq!(id.get(), raw);
            assert_eq!(id.zero_based(), raw - 1);
            assert_eq!(NodeId::from_zero_based(id.zero_based()), id);
        }
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn zero_rejected() {
        let _ = NodeId::new(0);
    }

    #[test]
    fn all_covers_range() {
        let ids: Vec<NodeId> = NodeId::all(8).collect();
        assert_eq!(ids.len(), 8);
        assert_eq!(ids[0], NodeId::new(1));
        assert_eq!(ids[7], NodeId::new(8));
    }

    #[test]
    fn ordering_follows_numbers() {
        assert!(NodeId::new(3) < NodeId::new(10));
    }

    #[test]
    fn display_is_bare_number() {
        assert_eq!(format!("{}", NodeId::new(12)), "12");
        assert_eq!(format!("{:?}", NodeId::new(12)), "NodeId(12)");
    }
}
