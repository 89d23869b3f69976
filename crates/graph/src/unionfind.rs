//! Disjoint-set forest with path halving and union by size.

/// Union-find over `0..n`. Used to apply merge decisions transitively
/// (Algorithm 1 line 15 merges vertices; merging is an equivalence).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    ///
    /// Elements are stored as `u32`, so `n` past `u32::MAX` would wrap
    /// silently in the parent table — check once at construction instead.
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "UnionFind overflow: {n} elements exceed u32::MAX"
        );
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// True if `a` and `b` share a set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of `x`'s set.
    pub fn size_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Group elements by representative: returns (representative → members),
    /// members ascending, groups ordered by representative.
    pub fn groups(&mut self) -> Vec<(usize, Vec<usize>)> {
        let n = self.len();
        let mut map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for x in 0..n {
            let r = self.find(x);
            map.entry(r).or_default().push(x);
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.size_of(i), 1);
        }
    }

    #[test]
    fn union_is_transitive() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        assert_eq!(uf.num_components(), 3);
        assert_eq!(uf.size_of(2), 3);
    }

    #[test]
    fn duplicate_union_returns_false() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_components(), 2);
    }

    #[test]
    fn groups_partition_everything() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let groups = uf.groups();
        let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 6);
        assert_eq!(groups.len(), uf.num_components());
        let g0 = groups.iter().find(|(_, m)| m.contains(&0)).unwrap();
        assert!(g0.1.contains(&3));
    }

    #[test]
    fn empty_is_fine() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_components(), 0);
    }
}
