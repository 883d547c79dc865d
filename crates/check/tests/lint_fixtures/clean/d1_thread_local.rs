//! D1-clean fixture: per-strand state lives with the strand's owner, keyed
//! by strand id — never in a `thread_local!`, whose value would follow
//! the OS thread a strand happens to resume on.

use std::collections::BTreeMap;

pub struct Depths {
    by_strand: BTreeMap<u64, u32>,
}

impl Depths {
    pub fn enter(&mut self, strand: u64) -> u32 {
        let d = self.by_strand.entry(strand).or_insert(0);
        *d += 1;
        *d
    }
}
