//! Validated fully-qualified domain names.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::{ParseDomainError, ParseDomainErrorKind};
use crate::psl;

/// A validated, lowercase, fully-qualified domain name (FQD).
///
/// Invariants: non-empty, at most 253 bytes, labels of 1–63 bytes drawn from
/// `[a-z0-9_-]`, no leading/trailing dots. A single trailing dot in the input
/// is accepted and stripped.
///
/// # Example
///
/// ```
/// use segugio_model::DomainName;
///
/// let d: DomainName = "WWW.Example.COM.".parse().unwrap();
/// assert_eq!(d.as_str(), "www.example.com");
/// assert_eq!(d.e2ld().as_str(), "example.com");
/// assert_eq!(d.label_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DomainName {
    name: Box<str>,
    /// Byte offset of the effective second-level domain within `name`.
    e2ld_offset: u16,
}

// Hashes as its `str`: the e2LD offset is a function of the name, and
// `Borrow<str>` promises that a map keyed by `DomainName` can be probed
// with a `&str` — what lets the interner look a spelling up before it
// allocates a name for it.
impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl DomainName {
    /// Longest valid name, in bytes.
    pub const MAX_LEN: usize = 253;

    /// Parses and validates a domain name, lowercasing it.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDomainError`] if the input is empty, too long, has an
    /// empty or over-long label, or contains characters outside `[a-z0-9_-.]`.
    pub fn parse(input: &str) -> Result<Self, ParseDomainError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(ParseDomainError::new(ParseDomainErrorKind::Empty));
        }
        if trimmed.len() > Self::MAX_LEN {
            return Err(ParseDomainError::new(ParseDomainErrorKind::TooLong));
        }
        let lower = trimmed.to_ascii_lowercase();
        for label in lower.split('.') {
            if label.is_empty() {
                return Err(ParseDomainError::new(ParseDomainErrorKind::EmptyLabel));
            }
            if label.len() > 63 {
                return Err(ParseDomainError::new(ParseDomainErrorKind::LabelTooLong));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
            {
                return Err(ParseDomainError::new(
                    ParseDomainErrorKind::InvalidCharacter,
                ));
            }
        }
        Ok(DomainName::from_validated(lower.into_boxed_str()))
    }

    /// Wraps an already-validated lowercase name, locating its e2LD.
    fn from_validated(name: Box<str>) -> Self {
        let offset = psl::e2ld_offset(&name);
        debug_assert!(offset <= u16::MAX as usize);
        DomainName {
            name,
            e2ld_offset: offset as u16,
        }
    }

    /// The full name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// The effective second-level domain, as a borrowed view.
    ///
    /// ```
    /// # use segugio_model::DomainName;
    /// let d: DomainName = "a.b.bbc.co.uk".parse().unwrap();
    /// assert_eq!(d.e2ld().as_str(), "bbc.co.uk");
    /// ```
    pub fn e2ld(&self) -> E2ld<'_> {
        E2ld(&self.name[self.e2ld_offset as usize..])
    }

    /// Whether this FQD *is* its own e2LD (i.e. directly registrable).
    pub fn is_e2ld(&self) -> bool {
        self.e2ld_offset == 0
    }

    /// Number of dot-separated labels.
    pub fn label_count(&self) -> usize {
        self.name.split('.').count()
    }

    /// Iterates over the labels, left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.name.split('.')
    }

    /// The name with its leftmost label removed, if any remains.
    ///
    /// ```
    /// # use segugio_model::DomainName;
    /// let d: DomainName = "a.b.example.com".parse().unwrap();
    /// assert_eq!(d.parent().unwrap().as_str(), "b.example.com");
    /// let tld: DomainName = "com".parse().unwrap();
    /// assert!(tld.parent().is_none());
    /// ```
    pub fn parent(&self) -> Option<DomainName> {
        let (_, rest) = self.name.split_once('.')?;
        // A suffix of a valid name is valid; only the e2LD moves.
        Some(DomainName::from_validated(rest.into()))
    }

    /// Whether `self` is a (strict or equal) subdomain of `ancestor`.
    ///
    /// ```
    /// # use segugio_model::DomainName;
    /// let d: DomainName = "a.b.example.com".parse().unwrap();
    /// let anc: DomainName = "example.com".parse().unwrap();
    /// assert!(d.is_subdomain_of(&anc));
    /// assert!(anc.is_subdomain_of(&anc));
    /// assert!(!anc.is_subdomain_of(&d));
    /// ```
    pub fn is_subdomain_of(&self, ancestor: &DomainName) -> bool {
        let name = self.as_str();
        let anc = ancestor.as_str();
        name == anc
            || (name.len() > anc.len()
                && name.ends_with(anc)
                && name.as_bytes()[name.len() - anc.len() - 1] == b'.')
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl FromStr for DomainName {
    type Err = ParseDomainError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.name
    }
}

impl Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.name
    }
}

/// A borrowed effective second-level domain extracted from a [`DomainName`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct E2ld<'a>(&'a str);

impl<'a> E2ld<'a> {
    /// The e2LD as a string slice.
    pub fn as_str(&self) -> &'a str {
        self.0
    }

    /// Allocates an owned copy of the e2LD string.
    pub fn to_owned_string(&self) -> String {
        self.0.to_owned()
    }
}

impl fmt::Display for E2ld<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl AsRef<str> for E2ld<'_> {
    fn as_ref(&self) -> &str {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_lowercases_and_strips_trailing_dot() {
        let d = DomainName::parse("FOO.Example.COM.").unwrap();
        assert_eq!(d.as_str(), "foo.example.com");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse(".").is_err());
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse("bad domain.com").is_err());
        assert!(DomainName::parse(&"a".repeat(64)).is_err());
        assert!(DomainName::parse(&format!("{}.com", "a.".repeat(130))).is_err());
    }

    #[test]
    fn accepts_underscore_and_hyphen() {
        assert!(DomainName::parse("_dmarc.example.com").is_ok());
        assert!(DomainName::parse("my-site.example.com").is_ok());
    }

    #[test]
    fn e2ld_views() {
        let d = DomainName::parse("x.y.example.com").unwrap();
        assert_eq!(d.e2ld().as_str(), "example.com");
        assert!(!d.is_e2ld());
        let e = DomainName::parse("example.com").unwrap();
        assert!(e.is_e2ld());
        assert_eq!(e.e2ld().as_str(), "example.com");
    }

    #[test]
    fn parent_chain_terminates() {
        let mut d = Some(DomainName::parse("a.b.c.d.e").unwrap());
        let mut steps = 0;
        while let Some(cur) = d {
            d = cur.parent();
            steps += 1;
        }
        assert_eq!(steps, 5);
    }

    #[test]
    fn subdomain_relation_is_label_aligned() {
        let d = DomainName::parse("notexample.com").unwrap();
        let anc = DomainName::parse("example.com").unwrap();
        // Suffix of the *string* but not of the label chain.
        assert!(!d.is_subdomain_of(&anc));
        let sub = DomainName::parse("x.example.com").unwrap();
        assert!(sub.is_subdomain_of(&anc));
    }

    #[test]
    fn labels_iterate_in_order() {
        let d = DomainName::parse("a.b.c").unwrap();
        assert_eq!(d.labels().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(d.label_count(), 3);
    }
}
