//! Identifiers and name-interning registries.
//!
//! Actor type names and function names appear both in application code and
//! in EPL rules; interning them to dense ids makes profiling counters cheap
//! (`(CallerKind, FnId)` map keys) and rule binding exact.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an actor instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u64);

/// Identifier of an actor *type* (`aname` in the paper's grammar).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorTypeId(pub u32);

/// Identifier of an interned function name (`fname`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub u32);

/// Identifier of an external client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Debug for ActorTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Bidirectional interner from strings to dense `u32`-backed ids.
#[derive(Debug, Default, Clone)]
struct Interner {
    by_name: BTreeMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// Registry of actor type names and function names for one application.
///
/// # Examples
///
/// ```
/// use plasma_actor::ids::NameRegistry;
///
/// let mut reg = NameRegistry::new();
/// let folder = reg.actor_type("Folder");
/// assert_eq!(reg.actor_type("Folder"), folder);
/// assert_eq!(reg.type_name(folder), "Folder");
/// assert_eq!(reg.lookup_type("File"), None);
/// ```
#[derive(Debug, Default, Clone)]
pub struct NameRegistry {
    types: Interner,
    fns: Interner,
}

impl NameRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        NameRegistry::default()
    }

    /// Interns an actor type name.
    pub fn actor_type(&mut self, name: &str) -> ActorTypeId {
        ActorTypeId(self.types.intern(name))
    }

    /// Looks up an actor type without interning.
    pub fn lookup_type(&self, name: &str) -> Option<ActorTypeId> {
        self.types.get(name).map(ActorTypeId)
    }

    /// Returns the name of a type id.
    pub fn type_name(&self, id: ActorTypeId) -> &str {
        self.types.name(id.0)
    }

    /// Returns the number of registered types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Returns every registered type id, in registration order.
    pub fn all_types(&self) -> impl Iterator<Item = ActorTypeId> {
        (0..self.types.len() as u32).map(ActorTypeId)
    }

    /// Interns a function name.
    pub fn function(&mut self, name: &str) -> FnId {
        FnId(self.fns.intern(name))
    }

    /// Looks up a function name without interning.
    pub fn lookup_function(&self, name: &str) -> Option<FnId> {
        self.fns.get(name).map(FnId)
    }

    /// Returns the name of a function id.
    pub fn function_name(&self, id: FnId) -> &str {
        self.fns.name(id.0)
    }

    /// Returns every registered function id, in registration order.
    pub fn all_functions(&self) -> impl Iterator<Item = FnId> {
        (0..self.fns.len() as u32).map(FnId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut reg = NameRegistry::new();
        let a = reg.actor_type("Worker");
        let b = reg.actor_type("Table");
        let a2 = reg.actor_type("Worker");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(reg.type_name(a), "Worker");
        assert_eq!(reg.type_name(b), "Table");
        assert_eq!(reg.type_count(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let reg = NameRegistry::new();
        assert_eq!(reg.lookup_type("Ghost"), None);
        assert_eq!(reg.lookup_function("ghost"), None);
    }

    #[test]
    fn functions_and_types_are_separate_namespaces() {
        let mut reg = NameRegistry::new();
        let t = reg.actor_type("open");
        let f = reg.function("open");
        assert_eq!(reg.type_name(t), "open");
        assert_eq!(reg.function_name(f), "open");
    }

    #[test]
    fn all_types_enumerates_in_order() {
        let mut reg = NameRegistry::new();
        let a = reg.actor_type("A");
        let b = reg.actor_type("B");
        let ids: Vec<ActorTypeId> = reg.all_types().collect();
        assert_eq!(ids, vec![a, b]);
    }
}
