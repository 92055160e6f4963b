//! Canonical-form symmetry reduction over clusters and addresses.
//!
//! The resilient model ([`crate::resilient`]) is **fully symmetric** in
//! both cluster identity and address identity: every cluster starts with
//! the same budget and empty caches, every address starts unowned, and no
//! transition rule mentions a concrete cluster or address id (FIFO order,
//! holder bitmaps and message tags are all relabelled consistently under
//! a permutation). The transition relation is therefore *equivariant*:
//! if `s → s'` then `π(s) → π(s')` for every permutation `π` of cluster
//! ids composed with a permutation of address ids.
//!
//! Under equivariance, exploring one representative per orbit is sound
//! for all the invariants we check (SWMR, staleness, divergence, poison
//! stickiness, deadlock freedom), because each invariant is itself
//! permutation-invariant — it quantifies over "some cluster/address",
//! never a specific one. A violation in any orbit member implies a
//! violation in the representative.
//!
//! The canonical form is the lexicographically smallest encoding over
//! the group (at most `3! × 2! = 12` elements). It is found without
//! encoding every image:
//!
//! * **Key-sorted candidates.** An encoding starts with a
//!   permutation-independent header followed by one fixed-length block
//!   per cluster, in new-index order ([`Symmetric::cluster_key`]). For
//!   each address permutation the cluster blocks are computed once, and
//!   only the cluster permutations that lay them out in non-decreasing
//!   order are candidates. Any other permutation has a strictly larger
//!   prefix, so it can be neither the minimum nor equal to it. This
//!   needs the group to hold every cluster permutation; the identity
//!   group encodes its one element.
//! * **Blocks before bytes.** A candidate's blocks are compared with the
//!   best image's before it is encoded: larger blocks lose without an
//!   encoding, smaller ones win without a full comparison, and only a
//!   tie is encoded and compared in full. On the 3×2 headline run a
//!   call encodes 1.14 images on average, against 12 for all images.
//! * **Orbit–stabilizer.** The images equal to the minimum form a coset
//!   of the stabilizer, so counting them while scanning gives
//!   `orbit = |G| / count` with no sort or dedup. The orbit sizes let
//!   the checker report the exact unreduced state count (Σ orbit sizes
//!   over canonical states) and hence an exact reduction factor — no
//!   second unreduced run needed.
//!
//! After warm-up a call allocates nothing: the candidate image, the
//! best image and the cluster keys live in buffers the group reuses.

use std::cmp::Ordering;

/// A state that can encode itself under a cluster/address relabelling.
pub trait Symmetric {
    /// Append a byte encoding of `self` with cluster `i` renamed to
    /// `cperm[i]` and address `a` renamed to `aperm[a]`. The encoding
    /// must be injective (two different states never encode equal) and
    /// the identity permutation must yield the natural serialization.
    fn encode_perm(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>);

    /// Append the block cluster `c` contributes to
    /// [`encode_perm`](Symmetric::encode_perm) under `aperm`. Where this
    /// writes anything, `encode_perm` must begin with a header that no
    /// permutation changes, followed by these blocks for the old
    /// clusters in new-index order, all of one length. The default
    /// writes nothing: every cluster then ties, and canonicalization
    /// encodes every permutation.
    fn cluster_key(&self, _c: usize, _aperm: &[u8], _out: &mut Vec<u8>) {}
}

/// All permutations of `0..n` in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<u8>> {
    fn rec(prefix: &mut Vec<u8>, used: &mut Vec<bool>, out: &mut Vec<Vec<u8>>) {
        if prefix.len() == used.len() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..used.len() {
            if !used[i] {
                used[i] = true;
                prefix.push(i as u8);
                rec(prefix, used, out);
                prefix.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut vec![false; n], &mut out);
    out
}

/// Write `inv[new] = old` for a permutation `perm[old] = new`.
pub(crate) fn invert(perm: &[u8], inv: &mut [usize]) {
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old;
    }
}

/// The combined cluster × address permutation group.
pub struct SymmetryGroup {
    /// Cluster permutations paired with their inverses; identity first.
    cperms: Vec<(Vec<u8>, Vec<usize>)>,
    /// Address permutations; identity first.
    aperms: Vec<Vec<u8>>,
    /// `cperms` holds every cluster permutation, so candidates may be
    /// pruned by cluster-key order.
    prune: bool,
    /// Cluster keys under every address permutation, back to back:
    /// cluster `c`'s under `aperms[a]` is block `a * clusters + c`.
    keys: Vec<u8>,
    /// The candidate image being encoded, and the least one so far.
    cur: Vec<u8>,
    best: Vec<u8>,
}

impl SymmetryGroup {
    fn from_perms(cperms: Vec<Vec<u8>>, aperms: Vec<Vec<u8>>, prune: bool) -> Self {
        SymmetryGroup {
            cperms: cperms
                .into_iter()
                .map(|p| {
                    let mut inv = vec![0; p.len()];
                    invert(&p, &mut inv);
                    (p, inv)
                })
                .collect(),
            aperms,
            prune,
            keys: Vec::new(),
            cur: Vec::new(),
            best: Vec::new(),
        }
    }

    /// The full group for `clusters × addrs`.
    pub fn new(clusters: usize, addrs: usize) -> Self {
        Self::from_perms(permutations(clusters), permutations(addrs), true)
    }

    /// The trivial group (identity only) — used to switch reduction off
    /// while keeping the same exploration code path.
    pub fn identity(clusters: usize, addrs: usize) -> Self {
        let id = |n: usize| vec![(0..n as u8).collect()];
        Self::from_perms(id(clusters), id(addrs), false)
    }

    /// Group order.
    pub fn order(&self) -> usize {
        self.cperms.len() * self.aperms.len()
    }

    /// Canonicalize: returns the lexicographically minimal encoding over
    /// all permutation images, and the orbit size (number of distinct
    /// images). The canonical bytes are appended to `out` (cleared
    /// first).
    pub fn canonical<S: Symmetric>(&mut self, s: &S, out: &mut Vec<u8>) -> usize {
        let SymmetryGroup {
            cperms,
            aperms,
            prune,
            keys,
            cur,
            best,
        } = self;
        let n = cperms[0].0.len();
        keys.clear();
        for ap in aperms.iter() {
            for c in 0..n {
                s.cluster_key(c, ap, keys);
            }
        }
        // Cluster `c`'s key under address permutation `a`.
        let len = keys.len() / (n * aperms.len());
        let key = |a: usize, c: usize| {
            let at = (a * n + c) * len;
            &keys[at..at + len]
        };
        // The best image's `(address permutation, inverse cluster
        // permutation)`, and the images equal to it: a coset of the
        // stabilizer.
        let mut best_at: Option<(usize, &[usize])> = None;
        let mut hits = 0;
        for (a, ap) in aperms.iter().enumerate() {
            for (cp, inv) in cperms.iter() {
                if *prune && inv.windows(2).any(|w| key(a, w[0]) > key(a, w[1])) {
                    continue;
                }
                // The cluster blocks decide against the best image unless
                // they tie with its own.
                let by_blocks = match best_at {
                    None => Ordering::Less,
                    Some((ba, binv)) => {
                        let blocks = inv.iter().map(|&c| key(a, c));
                        blocks.cmp(binv.iter().map(|&c| key(ba, c)))
                    }
                };
                if by_blocks == Ordering::Greater {
                    continue;
                }
                cur.clear();
                s.encode_perm(cp, ap, cur);
                if by_blocks == Ordering::Equal {
                    match cur.as_slice().cmp(best) {
                        Ordering::Less => {}
                        Ordering::Equal => {
                            hits += 1;
                            continue;
                        }
                        Ordering::Greater => continue,
                    }
                }
                std::mem::swap(cur, best);
                best_at = Some((a, inv));
                hits = 1;
            }
        }
        out.clear();
        out.extend_from_slice(best);
        self.order() / hits
    }

    /// The canonicalization the key-sorted search must reproduce: every
    /// image encoded, the least kept, the distinct ones counted.
    #[cfg(test)]
    pub(crate) fn canonical_reference<S: Symmetric>(&self, s: &S) -> (Vec<u8>, usize) {
        let mut images: Vec<Vec<u8>> = Vec::new();
        for (cp, _) in &self.cperms {
            for ap in &self.aperms {
                let mut img = Vec::new();
                s.encode_perm(cp, ap, &mut img);
                images.push(img);
            }
        }
        images.sort();
        images.dedup();
        (images[0].clone(), images.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_counts() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(SymmetryGroup::new(3, 2).order(), 12);
        assert_eq!(SymmetryGroup::identity(3, 2).order(), 1);
    }

    /// A toy symmetric state: one flag per cluster, one value per addr.
    struct Toy {
        flags: Vec<u8>,
        vals: Vec<u8>,
    }

    impl Symmetric for Toy {
        fn encode_perm(&self, cperm: &[u8], aperm: &[u8], out: &mut Vec<u8>) {
            // Write cluster fields in *new* index order.
            let mut inv_c = vec![0; cperm.len()];
            invert(cperm, &mut inv_c);
            for &old in &inv_c {
                self.cluster_key(old, aperm, out);
            }
            let mut inv_a = vec![0; aperm.len()];
            invert(aperm, &mut inv_a);
            for &old in &inv_a {
                out.push(self.vals[old]);
            }
        }

        fn cluster_key(&self, c: usize, _aperm: &[u8], out: &mut Vec<u8>) {
            out.push(self.flags[c]);
        }
    }

    /// `canonical` on both groups, checked against the reference.
    fn canon(s: &Toy) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        for mut g in [SymmetryGroup::new(3, 2), SymmetryGroup::identity(3, 2)] {
            let orbit = g.canonical(s, &mut out);
            assert_eq!((out.clone(), orbit), g.canonical_reference(s));
        }
        let mut g = SymmetryGroup::new(3, 2);
        let orbit = g.canonical(s, &mut out);
        (out, orbit)
    }

    #[test]
    fn permuted_states_share_canonical_form() {
        let a = Toy {
            flags: vec![1, 0, 2],
            vals: vec![9, 4],
        };
        let b = Toy {
            flags: vec![2, 1, 0],
            vals: vec![4, 9],
        };
        let (ca, orbit_a) = canon(&a);
        let (cb, orbit_b) = canon(&b);
        assert_eq!(ca, cb, "orbit members must share a canonical form");
        assert_eq!(orbit_a, orbit_b);
        // All flags distinct, both values distinct: full orbit.
        assert_eq!(orbit_a, 12);
    }

    #[test]
    fn orbit_size_reflects_stabilizer() {
        // Two identical clusters → stabilizer of size 2; identical
        // addresses → address swaps also stabilize. The tied keys leave
        // two cluster permutations per address permutation to encode.
        let s = Toy {
            flags: vec![5, 5, 1],
            vals: vec![7, 7],
        };
        assert_eq!(canon(&s), (vec![1, 5, 5, 7, 7], 3));
        // Fully symmetric state: orbit of one.
        let u = Toy {
            flags: vec![5, 5, 5],
            vals: vec![7, 7],
        };
        assert_eq!(canon(&u).1, 1);
    }

    #[test]
    fn identity_group_is_transparent() {
        let mut g = SymmetryGroup::identity(3, 2);
        // Keys out of order: the identity group must still encode its
        // one permutation rather than prune it.
        let a = Toy {
            flags: vec![1, 0, 2],
            vals: vec![9, 4],
        };
        let mut c = Vec::new();
        assert_eq!(g.canonical(&a, &mut c), 1);
        let mut plain = Vec::new();
        a.encode_perm(&[0, 1, 2], &[0, 1], &mut plain);
        assert_eq!(c, plain);
    }
}
