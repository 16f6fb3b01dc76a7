//! `no-unwrap-in-request-path` fixture: two sites, both reported;
//! `unwrap_or` and `#[cfg(test)]` code are exempt. Under a path outside
//! the request path the rule reports nothing.

pub fn take(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn demand(v: Option<u32>) -> u32 {
    v.expect("transport invariant")
}

pub fn graceful(v: Option<u32>) -> u32 {
    v.unwrap_or(7)
}

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        Some(1u32).unwrap();
        assert_eq!(super::take(Some(1)), 1);
    }
}
