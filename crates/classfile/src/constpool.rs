//! The constant pool of the binary class-file format.
//!
//! Entries use the JVM's tags and reference structure (`CONSTANT_Utf8`,
//! `CONSTANT_Class`, `CONSTANT_Fieldref`, …). Indices are 1-based, as in
//! the JVM specification.

use std::collections::HashMap;

/// A constant-pool entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constant {
    /// Tag 1: modified-UTF-8 text (we store plain UTF-8).
    Utf8(String),
    /// Tag 3: a 32-bit integer.
    Integer(i32),
    /// Tag 7: a class reference (index of its name).
    Class(u16),
    /// Tag 9: a field reference (class index, name-and-type index).
    Fieldref(u16, u16),
    /// Tag 10: a method reference.
    Methodref(u16, u16),
    /// Tag 11: an interface-method reference.
    InterfaceMethodref(u16, u16),
    /// Tag 12: a name-and-type pair (name index, descriptor index).
    NameAndType(u16, u16),
}

impl Constant {
    /// The entry's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Constant::Utf8(_) => 1,
            Constant::Integer(_) => 3,
            Constant::Class(_) => 7,
            Constant::Fieldref(..) => 9,
            Constant::Methodref(..) => 10,
            Constant::InterfaceMethodref(..) => 11,
            Constant::NameAndType(..) => 12,
        }
    }
}

/// An interning constant pool (1-based).
///
/// # Examples
///
/// ```
/// use lbr_classfile::ConstantPool;
/// let mut pool = ConstantPool::new();
/// let a = pool.utf8("A");
/// assert_eq!(pool.utf8("A"), a); // interned
/// let class = pool.class("A");
/// assert_eq!(pool.class_name(class), Some("A"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstantPool {
    entries: Vec<Constant>,
    index: HashMap<Constant, u16>,
    // UTF-8 entries get their own index so lookups can borrow a &str
    // instead of allocating a Constant key: a repeated name (most names
    // in a class repeat) is interned without a copy.
    utf8_index: HashMap<String, u16>,
}

impl ConstantPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a pool from raw entries (used by the reader).
    pub fn from_entries(entries: Vec<Constant>) -> Self {
        let mut index = HashMap::new();
        let mut utf8_index = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            match e {
                Constant::Utf8(s) => {
                    utf8_index.insert(s.clone(), (i + 1) as u16);
                }
                _ => {
                    index.insert(e.clone(), (i + 1) as u16);
                }
            }
        }
        ConstantPool {
            entries,
            index,
            utf8_index,
        }
    }

    /// Interns an entry, returning its 1-based index.
    pub fn intern(&mut self, c: Constant) -> u16 {
        if let Constant::Utf8(s) = &c {
            if let Some(&i) = self.utf8_index.get(s.as_str()) {
                return i;
            }
            let i = (self.entries.len() + 1) as u16;
            self.utf8_index.insert(s.clone(), i);
            self.entries.push(c);
            return i;
        }
        if let Some(&i) = self.index.get(&c) {
            return i;
        }
        self.entries.push(c.clone());
        let i = self.entries.len() as u16;
        self.index.insert(c, i);
        i
    }

    /// Interns a UTF-8 entry.
    pub fn utf8(&mut self, s: &str) -> u16 {
        if let Some(&i) = self.utf8_index.get(s) {
            return i;
        }
        let i = (self.entries.len() + 1) as u16;
        self.utf8_index.insert(s.to_owned(), i);
        self.entries.push(Constant::Utf8(s.to_owned()));
        i
    }

    /// Interns a class entry (and its name).
    pub fn class(&mut self, name: &str) -> u16 {
        let n = self.utf8(name);
        self.intern(Constant::Class(n))
    }

    /// Interns a name-and-type entry.
    pub fn name_and_type(&mut self, name: &str, desc: &str) -> u16 {
        let n = self.utf8(name);
        let d = self.utf8(desc);
        self.intern(Constant::NameAndType(n, d))
    }

    /// Interns a field reference.
    pub fn fieldref(&mut self, class: &str, name: &str, desc: &str) -> u16 {
        let c = self.class(class);
        let nat = self.name_and_type(name, desc);
        self.intern(Constant::Fieldref(c, nat))
    }

    /// Interns a method reference.
    pub fn methodref(&mut self, class: &str, name: &str, desc: &str) -> u16 {
        let c = self.class(class);
        let nat = self.name_and_type(name, desc);
        self.intern(Constant::Methodref(c, nat))
    }

    /// Interns an interface-method reference.
    pub fn interface_methodref(&mut self, class: &str, name: &str, desc: &str) -> u16 {
        let c = self.class(class);
        let nat = self.name_and_type(name, desc);
        self.intern(Constant::InterfaceMethodref(c, nat))
    }

    /// The entry at a 1-based index.
    pub fn get(&self, index: u16) -> Option<&Constant> {
        if index == 0 {
            return None;
        }
        self.entries.get(index as usize - 1)
    }

    /// Resolves a UTF-8 entry.
    pub fn utf8_at(&self, index: u16) -> Option<&str> {
        match self.get(index)? {
            Constant::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Resolves a class entry to its name.
    pub fn class_name(&self, index: u16) -> Option<&str> {
        match self.get(index)? {
            Constant::Class(n) => self.utf8_at(*n),
            _ => None,
        }
    }

    /// Resolves a field/method reference to `(class, name, descriptor)`.
    pub fn member_ref(&self, index: u16) -> Option<(&str, &str, &str)> {
        let (class_idx, nat_idx) = match self.get(index)? {
            Constant::Fieldref(c, n)
            | Constant::Methodref(c, n)
            | Constant::InterfaceMethodref(c, n) => (*c, *n),
            _ => return None,
        };
        let class = self.class_name(class_idx)?;
        let (name_idx, desc_idx) = match self.get(nat_idx)? {
            Constant::NameAndType(n, d) => (*n, *d),
            _ => return None,
        };
        Some((class, self.utf8_at(name_idx)?, self.utf8_at(desc_idx)?))
    }

    /// Number of entries (the file format's `count` field is this plus 1).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw entries in index order.
    pub fn entries(&self) -> &[Constant] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut p = ConstantPool::new();
        let a1 = p.utf8("A");
        let b = p.utf8("B");
        let a2 = p.utf8("A");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1, 1);
        assert_eq!(b, 2);
    }

    #[test]
    fn structured_entries() {
        let mut p = ConstantPool::new();
        let m = p.methodref("A", "m", "()V");
        assert_eq!(p.member_ref(m), Some(("A", "m", "()V")));
        let f = p.fieldref("B", "f", "I");
        assert_eq!(p.member_ref(f), Some(("B", "f", "I")));
        let c = p.class("A");
        assert_eq!(p.class_name(c), Some("A"));
        // Interning shares sub-entries: "A" utf8 appears once.
        let utf8_count = p
            .entries()
            .iter()
            .filter(|e| matches!(e, Constant::Utf8(s) if s == "A"))
            .count();
        assert_eq!(utf8_count, 1);
    }

    #[test]
    fn zero_index_is_invalid() {
        let p = ConstantPool::new();
        assert!(p.get(0).is_none());
        assert!(p.utf8_at(0).is_none());
    }

    #[test]
    fn from_entries_roundtrip() {
        let mut p = ConstantPool::new();
        p.methodref("A", "m", "()V");
        let q = ConstantPool::from_entries(p.entries().to_vec());
        assert_eq!(p, q);
    }

    #[test]
    fn tags() {
        assert_eq!(Constant::Utf8("x".into()).tag(), 1);
        assert_eq!(Constant::Integer(5).tag(), 3);
        assert_eq!(Constant::Class(1).tag(), 7);
        assert_eq!(Constant::Fieldref(1, 2).tag(), 9);
        assert_eq!(Constant::Methodref(1, 2).tag(), 10);
        assert_eq!(Constant::InterfaceMethodref(1, 2).tag(), 11);
        assert_eq!(Constant::NameAndType(1, 2).tag(), 12);
    }
}
