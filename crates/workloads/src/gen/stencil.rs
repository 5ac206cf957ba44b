//! Stencil generator — the `cactuBSSN`/`nab`/`milc` character: regular
//! neighborhood computation with stores on every element. Stores cast
//! shadows (until their addresses resolve quickly) and conceal words,
//! but there are no pointer dereferences, so load pairs are rare.

use recon_isa::{reg::names::*, Asm, Program};

use super::STREAM_BASE;

/// Parameters of [`generate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StencilParams {
    /// Grid points (1-D).
    pub points: u64,
    /// Sweeps over the grid.
    pub sweeps: u64,
}

impl Default for StencilParams {
    fn default() -> Self {
        StencilParams {
            points: 4096,
            sweeps: 2,
        }
    }
}

/// Builds a 1-D three-point stencil: `b[i] = a[i-1] + a[i] + a[i+1]`,
/// alternating the two arrays between sweeps.
#[must_use]
pub fn generate(p: StencilParams) -> Program {
    let mut a = Asm::new();
    let src = STREAM_BASE;
    let dst = STREAM_BASE + p.points * 8 + 64;
    for i in 0..p.points {
        a.data(src + i * 8, i % 97);
        a.data(dst + i * 8, 0);
    }
    a.li(R22, 0).li(R23, p.sweeps).li(R26, src).li(R27, dst);
    let sweep = a.here();
    a.li(R20, 1);
    a.li(R21, p.points - 1);
    let top = a.here();
    a.shli(R10, R20, 3);
    a.add(R10, R10, R26);
    a.load(R2, R10, -8);
    a.load(R3, R10, 0);
    a.load(R4, R10, 8);
    a.add(R5, R2, R3);
    a.add(R5, R5, R4);
    a.shli(R11, R20, 3);
    a.add(R11, R11, R27);
    a.store(R5, R11, 0);
    a.addi(R20, R20, 1);
    a.bltu_to(R20, R21, top);
    // Swap src/dst for the next sweep.
    a.add(R1, R26, R0);
    a.add(R26, R27, R0);
    a.add(R27, R1, R0);
    a.addi(R22, R22, 1);
    a.bltu_to(R22, R23, sweep);
    a.halt();
    a.assemble()
        .expect("stencil generator emits valid programs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::{run_collect, ArchState, SparseMem};

    #[test]
    fn computes_three_point_sums() {
        let prm = StencilParams {
            points: 8,
            sweeps: 1,
        };
        let p = generate(prm);
        let mut mem = SparseMem::from_image(&p.image);
        let mut state = ArchState::at_entry(&p);
        recon_isa::run_with(&p, &mut state, &mut mem, 1_000_000, |_| {}).unwrap();
        let dst = STREAM_BASE + 8 * 8 + 64;
        // b[1] = a[0]+a[1]+a[2] = 0+1+2 = 3.
        assert_eq!(mem.peek(dst + 8), 3);
        // b[3] = 2+3+4.
        assert_eq!(mem.peek(dst + 24), 9);
    }

    #[test]
    fn sweeps_alternate_arrays() {
        let p = generate(StencilParams {
            points: 8,
            sweeps: 2,
        });
        let (_, state) = run_collect(&p, 1_000_000).unwrap();
        assert!(state.halted);
    }

    #[test]
    fn stores_every_interior_point() {
        let p = generate(StencilParams {
            points: 16,
            sweeps: 1,
        });
        let (trace, _) = run_collect(&p, 1_000_000).unwrap();
        let stores = trace.iter().filter(|t| t.inst.is_store()).count();
        assert_eq!(stores, 14, "points 1..15");
    }
}
