//! Module 6, part 2: a 2-d heat-diffusion stencil over a Cartesian rank
//! grid — the "sketch the 2-d version" exercise of the latency-hiding
//! handout, fully worked.
//!
//! The global `gx × gy` cell grid is block-decomposed over a `pr × pc`
//! rank grid built with [`pdc_mpi::dims_create`] and addressed through
//! [`pdc_mpi::CartTopology`]. Every iteration exchanges four halos (two
//! contiguous rows, two strided columns) with `sendrecv` — one exchange
//! per direction, deadlock-free by construction — then applies the
//! five-point update with Dirichlet zero boundaries.

use pdc_mpi::{dims_create, drive, CartTopology, Comm, Op, Result, StepComm, World, WorldConfig};
use serde::{Deserialize, Serialize};

/// Diffusion coefficient of `u += α (∑ neighbours − 4u)`.
pub const ALPHA_2D: f64 = 0.125;

/// Report of one distributed 2-d stencil run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stencil2dReport {
    /// Global grid extent in x (cells).
    pub gx: usize,
    /// Global grid extent in y (cells).
    pub gy: usize,
    /// Rank grid (rows, cols).
    pub rank_grid: (usize, usize),
    /// Iterations run.
    pub iters: usize,
    /// Sum of the final field (via `MPI_Reduce`).
    pub checksum: f64,
    /// Simulated makespan, seconds.
    pub sim_time: f64,
}

/// Initial condition over global coordinates.
fn initial(x: usize, y: usize) -> f64 {
    ((x as f64) * 0.05).sin() * ((y as f64) * 0.03).cos() + 0.25
}

/// Sequential reference on the full grid (row-major `u[y * gx + x]`).
pub fn sequential_stencil_2d(gx: usize, gy: usize, iters: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..gx * gy).map(|i| initial(i % gx, i / gx)).collect();
    let mut next = u.clone();
    for _ in 0..iters {
        for y in 0..gy {
            for x in 0..gx {
                let at = |xx: isize, yy: isize| -> f64 {
                    if xx < 0 || yy < 0 || xx >= gx as isize || yy >= gy as isize {
                        0.0
                    } else {
                        u[yy as usize * gx + xx as usize]
                    }
                };
                let (xi, yi) = (x as isize, y as isize);
                let center = u[y * gx + x];
                next[y * gx + x] = center
                    + ALPHA_2D
                        * (at(xi - 1, yi) + at(xi + 1, yi) + at(xi, yi - 1) + at(xi, yi + 1)
                            - 4.0 * center);
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

/// Tags per direction.
const UP: u32 = 10;
const DOWN: u32 = 11;
const LEFT: u32 = 12;
const RIGHT: u32 = 13;

struct LocalGrid {
    /// Local cells plus a 1-cell ghost ring: `(lx + 2) × (ly + 2)`.
    u: Vec<f64>,
    lx: usize,
}

impl LocalGrid {
    fn idx(&self, x: usize, y: usize) -> usize {
        y * (self.lx + 2) + x
    }

    fn at(&self, x: usize, y: usize) -> f64 {
        self.u[self.idx(x, y)]
    }
}

/// One rank's body; returns its local block (row-major, no ghosts).
pub fn stencil2d_rank(
    comm: &mut Comm,
    cart: &CartTopology,
    gx: usize,
    gy: usize,
    iters: usize,
) -> Result<Vec<f64>> {
    drive(comm, |sc| Box::pin(stencil2d_step(sc, cart, gx, gy, iters)))
}

/// [`stencil2d_rank`] in resumable (step) form: the single source of
/// truth for the extension's halo pattern.
pub async fn stencil2d_step(
    mut sc: StepComm<'_, '_>,
    cart: &CartTopology,
    gx: usize,
    gy: usize,
    iters: usize,
) -> Result<Vec<f64>> {
    let (pr, pc) = (cart.dims()[0], cart.dims()[1]);
    let coords = cart.coords(sc.rank());
    let (ry, rx) = (coords[0], coords[1]);
    // Block extents (last block takes the remainder).
    let lx0 = rx * (gx / pc);
    let lx1 = if rx + 1 == pc {
        gx
    } else {
        (rx + 1) * (gx / pc)
    };
    let ly0 = ry * (gy / pr);
    let ly1 = if ry + 1 == pr {
        gy
    } else {
        (ry + 1) * (gy / pr)
    };
    let (lx, ly) = (lx1 - lx0, ly1 - ly0);

    let mut g = LocalGrid {
        u: vec![0.0; (lx + 2) * (ly + 2)],
        lx,
    };
    for y in 0..ly {
        for x in 0..lx {
            g.u[(y + 1) * (lx + 2) + (x + 1)] = initial(lx0 + x, ly0 + y);
        }
    }
    let mut next = g.u.clone();

    // Neighbour ranks (None = physical boundary).
    let (up, down) = cart.shift(sc.rank(), 0, 1); // dim 0 = rows (y)
    let (left, right) = cart.shift(sc.rank(), 1, 1); // dim 1 = cols (x)
                                                     // `shift(dim, +1)` returns (source, destination): the rank "above" us
                                                     // in the dimension is the source; the one "below" is the destination.

    for _ in 0..iters {
        // Row exchange (contiguous): send bottom row down, receive top
        // ghost from up; then the reverse.
        sc.phase_begin("halo");
        let bottom: Vec<f64> = (1..=lx).map(|x| g.at(x, ly)).collect();
        let top: Vec<f64> = (1..=lx).map(|x| g.at(x, 1)).collect();
        let recv_top = exchange(&mut sc, &bottom, down, up, DOWN).await?;
        let recv_bottom = exchange(&mut sc, &top, up, down, UP).await?;
        if let Some(row) = recv_top {
            for (x, v) in row.into_iter().enumerate() {
                let i = g.idx(x + 1, 0);
                g.u[i] = v;
            }
        }
        if let Some(row) = recv_bottom {
            for (x, v) in row.into_iter().enumerate() {
                let i = g.idx(x + 1, ly + 1);
                g.u[i] = v;
            }
        }
        // Column exchange (strided gather/scatter).
        let rightmost: Vec<f64> = (1..=ly).map(|y| g.at(lx, y)).collect();
        let leftmost: Vec<f64> = (1..=ly).map(|y| g.at(1, y)).collect();
        let recv_left = exchange(&mut sc, &rightmost, right, left, RIGHT).await?;
        let recv_right = exchange(&mut sc, &leftmost, left, right, LEFT).await?;
        if let Some(col) = recv_left {
            for (y, v) in col.into_iter().enumerate() {
                let i = g.idx(0, y + 1);
                g.u[i] = v;
            }
        }
        if let Some(col) = recv_right {
            for (y, v) in col.into_iter().enumerate() {
                let i = g.idx(lx + 1, y + 1);
                g.u[i] = v;
            }
        }

        sc.phase_end();

        // Five-point update (ghost ring supplies neighbours; physical
        // boundaries keep their zero ghosts).
        sc.phase_begin("compute");
        for y in 1..=ly {
            for x in 1..=lx {
                let c = g.at(x, y);
                next[g.idx(x, y)] = c + ALPHA_2D
                    * (g.at(x - 1, y) + g.at(x + 1, y) + g.at(x, y - 1) + g.at(x, y + 1) - 4.0 * c);
            }
        }
        // Copy interior; ghosts are refreshed each iteration anyway.
        std::mem::swap(&mut g.u, &mut next);
        sc.charge_kernel((lx * ly) as f64 * 6.0, (lx * ly) as f64 * 16.0);
        sc.phase_end();
    }

    // Strip ghosts.
    let mut out = Vec::with_capacity(lx * ly);
    for y in 1..=ly {
        for x in 1..=lx {
            out.push(g.at(x, y));
        }
    }
    Ok(out)
}

/// Send `data` toward `dst` and receive the opposite halo from `src`
/// (either may be a physical boundary).
async fn exchange(
    sc: &mut StepComm<'_, '_>,
    data: &[f64],
    dst: Option<usize>,
    src: Option<usize>,
    tag: u32,
) -> Result<Option<Vec<f64>>> {
    let req = match dst {
        Some(d) => Some(sc.isend(data, d, tag)?),
        None => None,
    };
    let got = match src {
        Some(s) => Some(sc.recv::<f64, _, _>(s, tag).await?.0),
        None => None,
    };
    if let Some(req) = req {
        sc.wait_send(req).await?;
    }
    Ok(got)
}

/// Run the distributed 2-d stencil on `ranks` ranks (factored into a grid
/// with [`dims_create`]).
pub fn run_stencil_2d(gx: usize, gy: usize, ranks: usize, iters: usize) -> Result<Stencil2dReport> {
    let dims = dims_create(ranks, 2);
    let (pr, pc) = (dims[0], dims[1]);
    assert!(
        gy >= pr && gx >= pc,
        "grid {gx}x{gy} too small for a {pr}x{pc} rank grid"
    );
    let out = World::run(WorldConfig::new(ranks), move |comm| {
        let cart = comm.cart(&[pr, pc], &[false, false])?;
        let block = stencil2d_rank(comm, &cart, gx, gy, iters)?;
        let local_sum: f64 = block.iter().sum();
        let total = comm.reduce(&[local_sum], Op::Sum, 0)?;
        Ok(total.map(|t| t[0]))
    })?;
    Ok(Stencil2dReport {
        gx,
        gy,
        rank_grid: (pr, pc),
        iters,
        checksum: out.values[0].expect("rank 0 holds the reduction"),
        sim_time: out.sim_time,
    })
}

/// The full distributed field in global row-major order (for validation).
pub fn run_stencil_2d_field(gx: usize, gy: usize, ranks: usize, iters: usize) -> Result<Vec<f64>> {
    let dims = dims_create(ranks, 2);
    let (pr, pc) = (dims[0], dims[1]);
    let out = World::run(WorldConfig::new(ranks), move |comm| {
        let cart = comm.cart(&[pr, pc], &[false, false])?;
        let block = stencil2d_rank(comm, &cart, gx, gy, iters)?;
        comm.gatherv(&block, 0)
    })?;
    // Reassemble the blocks into the global grid on the caller side.
    let blocks = out.values[0].clone().expect("rank 0 gathered");
    let mut field = vec![0.0f64; gx * gy];
    for (rank, block) in blocks.into_iter().enumerate() {
        let cart = CartTopology::new(pr * pc, &[pr, pc], &[false, false]).expect("validated grid");
        let coords = cart.coords(rank);
        let (ry, rx) = (coords[0], coords[1]);
        let lx0 = rx * (gx / pc);
        let lx1 = if rx + 1 == pc {
            gx
        } else {
            (rx + 1) * (gx / pc)
        };
        let ly0 = ry * (gy / pr);
        let ly1 = if ry + 1 == pr {
            gy
        } else {
            (ry + 1) * (gy / pr)
        };
        let lx = lx1 - lx0;
        for (i, v) in block.into_iter().enumerate() {
            let (y, x) = (i / lx, i % lx);
            field[(ly0 + y) * gx + (lx0 + x)] = v;
        }
        let _ = ly1;
    }
    Ok(field)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_2d_reference_behaves() {
        let u = sequential_stencil_2d(16, 12, 10);
        assert_eq!(u.len(), 16 * 12);
        assert!(u.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn distributed_matches_sequential_on_square_grids() {
        for ranks in [1, 2, 4, 6] {
            let field = run_stencil_2d_field(24, 24, ranks, 15)
                .unwrap_or_else(|e| panic!("ranks={ranks}: {e}"));
            let reference = sequential_stencil_2d(24, 24, 15);
            for (i, (a, b)) in field.iter().zip(&reference).enumerate() {
                assert!((a - b).abs() < 1e-12, "ranks={ranks} cell {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn distributed_matches_sequential_on_ragged_grids() {
        // Extents that do not divide evenly over the rank grid.
        let field = run_stencil_2d_field(17, 13, 4, 9).expect("ragged grid");
        let reference = sequential_stencil_2d(17, 13, 9);
        for (a, b) in field.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn checksum_is_rank_count_invariant() {
        let reference: f64 = sequential_stencil_2d(20, 20, 12).iter().sum();
        for ranks in [1, 3, 4, 8] {
            let rep =
                run_stencil_2d(20, 20, ranks, 12).unwrap_or_else(|e| panic!("ranks={ranks}: {e}"));
            assert!(
                (rep.checksum - reference).abs() < 1e-9,
                "ranks={ranks}: {} vs {reference}",
                rep.checksum
            );
        }
    }

    #[test]
    fn zero_iterations_returns_the_initial_field() {
        let field = run_stencil_2d_field(10, 8, 4, 0).expect("runs");
        for y in 0..8 {
            for x in 0..10 {
                assert_eq!(field[y * 10 + x], initial(x, y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn grids_smaller_than_the_rank_grid_are_rejected() {
        let _ = run_stencil_2d(2, 2, 16, 1);
    }
}
