//! Directory listings that READDIR replies share by snapshot.
//!
//! A READDIR reply carries every name of a directory.  The server caches each
//! reply in its duplicate request cache, and the filesystem keeps the listing
//! current as CREATE and REMOVE change the directory, so a large, busy
//! directory would otherwise copy (and later free) its whole name list on
//! every change.  [`DirListing`] stores the names in short sorted runs under
//! one shared spine: a snapshot is a reference-count bump, and a change
//! copies only the spine (one pointer per run) and the one run it touches.

use std::collections::HashSet;
use std::sync::Arc;

use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// Most names one run holds; an insert into a full run splits it in half.
const MAX_RUN: usize = 128;

/// A removal that leaves a run shorter than this merges it with a neighbour,
/// so the spine stays about `len / MIN_RUN` runs long at most.
const MIN_RUN: usize = MAX_RUN / 4;

type Run = Arc<Vec<Arc<str>>>;

/// The names of one directory in ascending byte order, as a READDIR reply
/// carries them.
///
/// `clone` is an O(1) snapshot: later changes never show through an older
/// clone.  An insert or remove finds its place in O(log n) by binary search
/// over the runs' first names and then within one run.  It copies the spine
/// and the run it changes only if a snapshot still shares them, so the first
/// change after a snapshot also costs one reference-count update per run,
/// n / `MAX_RUN` to n / `MIN_RUN` of them (66 to 262 for 8,392 names), and
/// dropping the old snapshot later undoes them.  Dropping a snapshot frees
/// only the runs that no other listing shares.  [`DirListing::len`] and the
/// wire size behind [`XdrEncode::xdr_size`] are kept up to date by every
/// change, so sizing a reply never walks the names.
///
/// On the wire a listing is an ordinary XDR array of strings.
#[derive(Clone, Default)]
pub struct DirListing(Arc<Spine>);

/// The shared state of a [`DirListing`]; a change copies it only while a
/// snapshot still holds it.
#[derive(Clone, Default)]
struct Spine {
    /// Non-empty runs of at most [`MAX_RUN`] names; every name in a run
    /// sorts before every name in the next.
    runs: Vec<Run>,
    len: usize,
    /// Sum of the names' XDR string sizes.
    name_bytes: usize,
}

impl DirListing {
    /// Build a listing from names in strictly ascending order, such as the
    /// keys of a `BTreeMap`.  Returns `None` if a name is out of order or
    /// repeated.
    pub fn from_sorted(names: impl IntoIterator<Item = Arc<str>>) -> Option<Self> {
        let mut spine = Spine::default();
        let mut run: Vec<Arc<str>> = Vec::new();
        for name in names {
            let last = run
                .last()
                .or_else(|| spine.runs.last().and_then(|r| r.last()));
            if last.is_some_and(|last| *last >= name) {
                return None;
            }
            spine.len += 1;
            spine.name_bytes += name.xdr_size();
            run.push(name);
            if run.len() == MAX_RUN {
                spine.runs.push(Arc::new(std::mem::take(&mut run)));
            }
        }
        if !run.is_empty() {
            spine.runs.push(Arc::new(run));
        }
        Some(DirListing(Arc::new(spine)))
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// `true` if the directory has no names.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// The names in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<str>> + '_ {
        self.0.runs.iter().flat_map(|run| run.iter())
    }

    /// `true` if both are snapshots of one unchanged listing.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// How many of this listing's runs `other` does not share: what
    /// dropping `self` frees when `other` is the only other holder.
    pub fn runs_not_shared_with(&self, other: &Self) -> usize {
        let theirs: HashSet<*const Vec<Arc<str>>> = other.0.runs.iter().map(Arc::as_ptr).collect();
        self.0
            .runs
            .iter()
            .filter(|run| !theirs.contains(&Arc::as_ptr(run)))
            .count()
    }

    /// The run that holds `name` or would hold it, and the name's position
    /// in that run (`Err` gives where it would be inserted); `None` when the
    /// listing is empty.
    fn locate(&self, name: &str) -> Option<(usize, Result<usize, usize>)> {
        let runs = &self.0.runs;
        let run = runs.partition_point(|r| &*r[0] <= name).saturating_sub(1);
        let names = runs.get(run)?;
        Some((run, names.binary_search_by(|n| (**n).cmp(name))))
    }

    /// Add `name`.  Returns `false`, changing nothing, if it is present.
    pub fn insert(&mut self, name: Arc<str>) -> bool {
        let found = self.locate(&name);
        if let Some((_, Ok(_))) = found {
            return false;
        }
        let spine = Arc::make_mut(&mut self.0);
        spine.len += 1;
        spine.name_bytes += name.xdr_size();
        let Some((run, Err(pos))) = found else {
            spine.runs.push(Arc::new(vec![name]));
            return true;
        };
        let names = Arc::make_mut(&mut spine.runs[run]);
        names.insert(pos, name);
        if names.len() > MAX_RUN {
            let tail = names.split_off(names.len() / 2);
            spine.runs.insert(run + 1, Arc::new(tail));
        }
        true
    }

    /// Remove `name`.  Returns `false`, changing nothing, if it is absent.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some((run, Ok(pos))) = self.locate(name) else {
            return false;
        };
        let spine = Arc::make_mut(&mut self.0);
        let removed = Arc::make_mut(&mut spine.runs[run]).remove(pos);
        spine.len -= 1;
        spine.name_bytes -= removed.xdr_size();
        let runs = &mut spine.runs;
        if runs.len() == 1 {
            if runs[0].is_empty() {
                runs.clear();
            }
        } else if runs[run].len() < MIN_RUN {
            // Merge with the next run (the previous one for the last run),
            // then split again if the pair overflows.
            let left = run.min(runs.len() - 2);
            let right = runs.remove(left + 1);
            let names = Arc::make_mut(&mut runs[left]);
            names.extend(right.iter().cloned());
            if names.len() > MAX_RUN {
                let tail = names.split_off(names.len() / 2);
                runs.insert(left + 1, Arc::new(tail));
            }
        }
        true
    }
}

impl PartialEq for DirListing {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Eq for DirListing {}

impl std::fmt::Debug for DirListing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl XdrEncode for DirListing {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.len() as u32);
        for name in self.iter() {
            name.encode(enc);
        }
    }

    /// The count word plus every name, kept as a running total: the names
    /// are not visited.
    fn xdr_size(&self) -> usize {
        4 + self.0.name_bytes
    }
}

impl XdrDecode for DirListing {
    /// Decoding rejects a list that is not strictly ascending, so a listing
    /// from the wire keeps the same order invariant as one the server built.
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        DirListing::from_sorted(Vec::<Arc<str>>::decode(dec)?).ok_or(XdrError::InvalidValue(
            "DirListing names not in strictly ascending order",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wg_simcore::SimRng;
    use wg_xdr::{from_bytes, to_bytes};

    fn check(listing: &DirListing, oracle: &BTreeSet<Arc<str>>) {
        assert_eq!(listing.len(), oracle.len());
        assert!(listing.iter().eq(oracle.iter()), "order diverged");
        let wire = 4 + oracle.iter().map(|n| n.xdr_size()).sum::<usize>();
        assert_eq!(listing.xdr_size(), wire);
        assert_eq!(to_bytes(listing).len(), wire);
        for run in &listing.0.runs {
            assert!((1..=MAX_RUN).contains(&run.len()), "run of {}", run.len());
        }
    }

    /// Random inserts, removes and snapshots against a `BTreeSet` oracle:
    /// order, `len` and the wire size always agree, and every snapshot still
    /// reads exactly as the oracle did when it was taken.  The CI release
    /// step reruns it at optimised speed.
    #[test]
    fn differential_fuzz_matches_a_btreeset_oracle() {
        for seed in 1..=8u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut listing = DirListing::default();
            let mut oracle = BTreeSet::new();
            let mut snapshots = Vec::new();
            // A small name space keeps duplicate inserts and removes of
            // present names frequent; lengths 1..=12 exercise XDR padding.
            let universe = 50 + rng.next_below(1500);
            for step in 0..6000 {
                let id = rng.next_below(universe);
                let name: Arc<str> = format!("{id:0width$}", width = 1 + (id % 12) as usize).into();
                match rng.next_below(10) {
                    0..=5 => assert_eq!(listing.insert(Arc::clone(&name)), oracle.insert(name)),
                    6..=8 => assert_eq!(listing.remove(&name), oracle.remove(&name)),
                    _ => snapshots.push((listing.clone(), oracle.clone())),
                }
                if step % 97 == 0 {
                    check(&listing, &oracle);
                }
            }
            check(&listing, &oracle);
            for (snapshot, then) in &snapshots {
                check(snapshot, then);
            }
            // Draining every name leaves the empty listing.
            let names: Vec<Arc<str>> = oracle.iter().cloned().collect();
            for name in names {
                assert!(listing.remove(&name));
            }
            assert_eq!(listing, DirListing::default());
            assert!(listing.0.runs.is_empty());
        }
    }

    #[test]
    fn a_change_copies_only_the_run_it_touches() {
        let names: Vec<String> = (0..1000).map(|i| format!("f{i:04}")).collect();
        let mut live =
            DirListing::from_sorted(names.iter().map(|n| Arc::from(n.as_str()))).expect("sorted");
        let snapshot = live.clone();
        assert!(live.ptr_eq(&snapshot));
        assert!(live.insert("f0500x".into()));
        assert!(!live.ptr_eq(&snapshot));
        // `from_sorted` fills runs to `MAX_RUN`, so the touched run split.
        assert_eq!(snapshot.runs_not_shared_with(&live), 1);
        assert_eq!(live.runs_not_shared_with(&snapshot), 2);
        assert_eq!(snapshot.len(), 1000);
        assert_eq!(live.len(), 1001);
    }

    #[test]
    fn from_sorted_rejects_disorder_and_decode_rejects_it_on_the_wire() {
        assert!(DirListing::from_sorted(["b".into(), "a".into()]).is_none());
        assert!(DirListing::from_sorted(["a".into(), "a".into()]).is_none());
        let unsorted = to_bytes(&vec![Arc::<str>::from("b"), Arc::from("a")]);
        assert!(matches!(
            from_bytes::<DirListing>(&unsorted),
            Err(XdrError::InvalidValue(_))
        ));
        let ok = DirListing::from_sorted(["a", "bb", "ccc"].map(Arc::from)).unwrap();
        assert_eq!(from_bytes::<DirListing>(&to_bytes(&ok)).unwrap(), ok);
        assert_eq!(format!("{ok:?}"), r#"["a", "bb", "ccc"]"#);
    }
}
