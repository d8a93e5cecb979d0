//! Empty stand-in for `crossbeam`. The BlendHouse library crates list it as
//! a dependency but reference no item from it, so resolving the name is all
//! the offline benchmark build needs.
