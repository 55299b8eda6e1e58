//! 2D computational geometry primitives for unstructured-mesh stencil
//! evaluation.
//!
//! This crate provides the geometric substrate used throughout `ustencil`:
//!
//! * [`Point2`] / [`Vec2`] — double-precision points and vectors,
//! * [`Aabb`] — axis-aligned bounding boxes,
//! * [`Triangle`] — triangles with area/centroid/containment queries,
//! * [`ConvexPolygon`] — small inline-allocated convex polygons,
//! * [`clip`] — the Sutherland–Hodgman clipping algorithm (Algorithm 1 of the
//!   paper) and fan triangulation of the clipped region (Figure 4),
//! * [`rect`] — axis-aligned rectangles used as stencil lattice squares.
//!
//! All polygon operations are allocation-free up to
//! [`ConvexPolygon::CAPACITY`] vertices, which covers every case arising from
//! clipping a triangle against a convex stencil square (at most 7 vertices).

#![deny(missing_docs)]

pub mod aabb;
pub mod clip;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod triangle;

pub use aabb::Aabb;
pub use clip::{clip_polygon, clip_slab_x, clip_slab_y, clip_triangle_rect, fan_triangulate};
pub use point::{Point2, Vec2};
pub use polygon::ConvexPolygon;
pub use rect::Rect;
pub use triangle::Triangle;

/// Geometric tolerance used for degeneracy decisions (areas, containment).
///
/// Chosen relative to the unit-square domain used throughout the library;
/// intersection regions smaller than this in linear measure are treated as
/// empty.
pub const GEOM_EPS: f64 = 1e-12;
