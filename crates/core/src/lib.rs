//! # blendhouse — the cloud-native generalized vector database
//!
//! The top-level facade tying every subsystem together the way §II's
//! architecture diagram does:
//!
//! * a **catalog** of tables, each backed by an LSM [`bh_storage::TableStore`]
//!   persisting to one shared (simulated) remote object store;
//! * named **virtual warehouses** ([`bh_cluster::VirtualWarehouse`]) of
//!   stateless workers — create separate VWs for reads and writes to get the
//!   paper's read/write isolation;
//! * one **query engine** ([`bh_query::QueryEngine`]) with a shared plan
//!   cache and measured cost model;
//! * a SQL front door: [`Database::execute`] runs any statement of the
//!   dialect (Example 1 end to end).
//!
//! ```
//! use blendhouse::{Database, QueryOutput};
//!
//! let db = Database::in_memory();
//! db.execute(
//!     "CREATE TABLE docs (
//!        id UInt64, body String, embedding Array(Float32),
//!        INDEX ann embedding TYPE HNSW('DIM=4')
//!      ) ORDER BY id",
//! ).unwrap();
//! db.execute("INSERT INTO docs VALUES (1, 'hello', [0.0, 0.0, 0.0, 0.0]), \
//!                                     (2, 'world', [1.0, 1.0, 1.0, 1.0])").unwrap();
//! let out = db.execute(
//!     "SELECT id FROM docs ORDER BY L2Distance(embedding, [0.1, 0.0, 0.0, 0.0]) LIMIT 1",
//! ).unwrap();
//! let QueryOutput::Rows(rows) = out else { panic!() };
//! assert_eq!(rows.rows[0][0], blendhouse::Value::UInt64(1));
//! ```

pub mod csv;
pub mod database;
pub mod ddl;
mod profile;
pub mod systbl;

pub use bh_query::{QueryOptions, ResultSet, Strategy};
pub use bh_storage::value::{ColumnType, Value};
pub use database::{Database, DatabaseConfig, QueryOutput};
