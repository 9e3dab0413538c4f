//! Compact interned identifiers for machines and domains.
//!
//! ISP-scale graphs (millions of machines, tens of millions of domains)
//! cannot afford string keys in their hot paths. [`DomainTable`] interns
//! every observed FQD once, assigns it a dense [`DomainId`], and caches its
//! e2LD as a dense [`E2ldId`] so that e2LD-grouped operations (whitelist
//! matching, pruning rule R4, the e2LD activity features) are integer
//! lookups.

use std::collections::HashMap;
use std::fmt;

use crate::domain::DomainName;
use crate::error::ParseDomainError;

/// Identifier of a client machine in the monitored network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Dense identifier of an interned fully-qualified domain name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The raw index into the owning [`DomainTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Dense identifier of an interned effective second-level domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct E2ldId(pub u32);

impl E2ldId {
    /// The raw index into the owning [`DomainTable`]'s e2LD arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for E2ldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Interner mapping [`DomainName`]s to dense [`DomainId`]s (and their e2LDs
/// to dense [`E2ldId`]s).
///
/// # Example
///
/// ```
/// use segugio_model::{DomainName, DomainTable};
///
/// let mut table = DomainTable::new();
/// let d1 = table.intern(&"www.example.com".parse().unwrap());
/// let d2 = table.intern(&"mail.example.com".parse().unwrap());
/// assert_ne!(d1, d2);
/// assert_eq!(table.e2ld_of(d1), table.e2ld_of(d2));
/// assert_eq!(table.name(d1).as_str(), "www.example.com");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainTable {
    names: Vec<DomainName>,
    by_name: HashMap<DomainName, DomainId>,
    e2ld_of: Vec<E2ldId>,
    e2lds: Vec<String>,
    e2ld_by_name: HashMap<String, E2ldId>,
}

impl DomainTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Repeated interning of the same name
    /// returns the same id.
    pub fn intern(&mut self, name: &DomainName) -> DomainId {
        match self.by_name.get(name) {
            Some(&id) => id,
            None => self.push_new(name.clone()),
        }
    }

    /// Interns a raw spelling (any case, optional trailing dot), looking
    /// it up before anything is allocated or validated: a name the table
    /// already holds costs one normalising copy onto the stack and one
    /// hash probe. Only a miss runs [`DomainName::parse`], so the names
    /// accepted and the errors returned are exactly that function's.
    ///
    /// ```
    /// use segugio_model::DomainTable;
    ///
    /// let mut table = DomainTable::new();
    /// let id = table.intern_str("www.example.com").unwrap();
    /// assert_eq!(table.intern_str("WWW.Example.COM."), Ok(id));
    /// assert!(table.intern_str("not a domain").is_err());
    /// assert_eq!(table.len(), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseDomainError`] when `raw` is new to the table and is
    /// not a valid domain name.
    pub fn intern_str(&mut self, raw: &str) -> Result<DomainId, ParseDomainError> {
        match self.get_str(raw) {
            Some(id) => Ok(id),
            None => Ok(self.push_new(DomainName::parse(raw)?)),
        }
    }

    /// Appends a name the table does not hold yet.
    fn push_new(&mut self, name: DomainName) -> DomainId {
        let id = DomainId(self.names.len() as u32);
        let e2ld_str = name.e2ld().as_str();
        let e2ld_id = match self.e2ld_by_name.get(e2ld_str) {
            Some(&eid) => eid,
            None => {
                let eid = E2ldId(self.e2lds.len() as u32);
                self.e2lds.push(e2ld_str.to_owned());
                self.e2ld_by_name.insert(e2ld_str.to_owned(), eid);
                eid
            }
        };
        self.e2ld_of.push(e2ld_id);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &DomainName) -> Option<DomainId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a raw spelling (any case, optional trailing dot) without
    /// allocating.
    ///
    /// The key is the *normalised* spelling — trailing dot stripped,
    /// ASCII-lowercased — which is the form every interned name has, so a
    /// hit is a valid name by construction and mixed-case (DNS-0x20)
    /// spellings all land on the one entry.
    pub fn get_str(&self, raw: &str) -> Option<DomainId> {
        let trimmed = raw.strip_suffix('.').unwrap_or(raw);
        // Longer than any valid name: it cannot be interned.
        let mut buf = [0u8; DomainName::MAX_LEN];
        let normalised = buf.get_mut(..trimmed.len())?;
        normalised.copy_from_slice(trimmed.as_bytes());
        normalised.make_ascii_lowercase();
        // Lowercasing ASCII bytes in place keeps UTF-8 valid.
        let normalised = std::str::from_utf8(normalised).ok()?;
        self.by_name.get(normalised).copied()
    }

    /// The [`DomainName`] for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: DomainId) -> &DomainName {
        &self.names[id.index()]
    }

    /// The e2LD id for a domain id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn e2ld_of(&self, id: DomainId) -> E2ldId {
        self.e2ld_of[id.index()]
    }

    /// The e2LD string for an e2LD id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn e2ld_str(&self, id: E2ldId) -> &str {
        &self.e2lds[id.index()]
    }

    /// Looks up an e2LD id by its exact string.
    pub fn e2ld_id(&self, e2ld: &str) -> Option<E2ldId> {
        self.e2ld_by_name.get(e2ld).copied()
    }

    /// Number of interned FQDs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of distinct e2LDs interned.
    pub fn e2ld_count(&self) -> usize {
        self.e2lds.len()
    }

    /// Iterates over all interned domain ids.
    pub fn ids(&self) -> impl Iterator<Item = DomainId> {
        (0..self.names.len() as u32).map(DomainId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = DomainTable::new();
        let a = t.intern(&dn("a.example.com"));
        let b = t.intern(&dn("a.example.com"));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn e2ld_sharing() {
        let mut t = DomainTable::new();
        let a = t.intern(&dn("a.example.com"));
        let b = t.intern(&dn("b.example.com"));
        let c = t.intern(&dn("c.other.org"));
        assert_eq!(t.e2ld_of(a), t.e2ld_of(b));
        assert_ne!(t.e2ld_of(a), t.e2ld_of(c));
        assert_eq!(t.e2ld_count(), 2);
        assert_eq!(t.e2ld_str(t.e2ld_of(c)), "other.org");
    }

    #[test]
    fn lookup_by_string() {
        let mut t = DomainTable::new();
        let a = t.intern(&dn("www.example.com"));
        assert_eq!(t.get_str("WWW.EXAMPLE.COM"), Some(a));
        assert_eq!(t.get_str("missing.example.com"), None);
        assert_eq!(t.get_str("not a domain"), None);
    }

    #[test]
    fn intern_str_agrees_with_parse_then_intern() {
        let spellings = [
            "www.example.com",
            "WWW.Example.COM",
            "www.example.com.",
            "wWw.eXample.cOm.",
            "mail.example.com",
            "a.b.bbc.co.uk",
            "",
            ".",
            "www.example.com..",
            "a..b",
            "bad domain.com",
            "caf\u{e9}.example.com",
            "\u{130}.example.com",
        ];
        let long_label = format!("{}.com", "a".repeat(64));
        let long_name = format!("{}com", "a.".repeat(130));
        let mut by_str = DomainTable::new();
        let mut by_name = DomainTable::new();
        for raw in spellings
            .iter()
            .copied()
            .chain([long_label.as_str(), long_name.as_str()])
        {
            let expected = DomainName::parse(raw).map(|n| by_name.intern(&n));
            assert_eq!(by_str.intern_str(raw), expected, "{raw:?}");
            assert_eq!(by_str.get_str(raw), expected.ok(), "{raw:?}");
        }
        assert_eq!(by_str.len(), 3);
        assert_eq!(by_str.e2ld_count(), by_name.e2ld_count());
        for id in by_name.ids() {
            assert_eq!(by_str.name(id), by_name.name(id));
            assert_eq!(by_str.e2ld_of(id), by_name.e2ld_of(id));
        }
    }

    #[test]
    fn ids_iterate_densely() {
        let mut t = DomainTable::new();
        t.intern(&dn("a.com"));
        t.intern(&dn("b.com"));
        let ids: Vec<_> = t.ids().collect();
        assert_eq!(ids, vec![DomainId(0), DomainId(1)]);
    }
}
