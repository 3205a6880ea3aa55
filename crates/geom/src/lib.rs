//! Fixed-point micron geometry primitives for the `irgrid` workspace.
//!
//! Every length in the workspace is an integer number of micrometers wrapped
//! in the [`Um`] newtype; areas are [`UmArea`] (µm², `i128` so a full-chip
//! area never overflows). Keeping coordinates integral makes geometric
//! predicates exact, which matters for the Irregular-Grid construction: the
//! cutting lines extracted from net routing ranges must compare equal when
//! two nets share a boundary, and floating-point coordinates would split one
//! logical cutting line into several.
//!
//! # Examples
//!
//! ```
//! use irgrid_geom::{Point, Rect, Um};
//!
//! let chip = Rect::new(Point::new(Um(0), Um(0)), Point::new(Um(300), Um(200)));
//! let range = Rect::from_corner_points(
//!     Point::new(Um(250), Um(50)),
//!     Point::new(Um(40), Um(180)),
//! );
//! assert!(chip.contains_rect(&range));
//! assert_eq!(range.width(), Um(210));
//! assert_eq!(range.area().0, 210 * 130);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod point;
mod rect;
mod um;

pub use point::Point;
pub use rect::Rect;
pub use um::{Um, UmArea};
