//! The five synthetic Linux servers of Table I.

pub mod cherokee;
pub mod common;
pub mod lighttpd;
pub mod memcached;
pub mod nginx;
pub mod postgresql;

pub use common::{ServerTarget, DATA_BASE, DATA_SIZE};

/// The five server names in Table I column order.
pub const NAMES: [&str; 5] = ["nginx", "cherokee", "lighttpd", "memcached", "postgresql"];

/// All five server targets in Table I column order.
pub fn all() -> Vec<ServerTarget> {
    NAMES
        .iter()
        .map(|n| by_name(n).expect("every listed server builds"))
        .collect()
}

/// The named server target, or `None` for a name outside [`NAMES`].
/// Builds only that server's image, not all five.
pub fn by_name(name: &str) -> Option<ServerTarget> {
    Some(match name {
        "nginx" => nginx::target(),
        "cherokee" => cherokee::target(),
        "lighttpd" => lighttpd::target(),
        "memcached" => memcached::target(),
        "postgresql" => postgresql::target(),
        _ => return None,
    })
}
