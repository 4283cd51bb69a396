//! The §4.1 halo-exchange stencil, end to end with *real* data: runs the
//! message-based and CkDirect variants on a small 3-D heat-diffusion
//! problem, verifies both against a serial reference bit for bit, and
//! reports the iteration-time difference.
//!
//! ```text
//! cargo run --release --example jacobi_stencil
//! ```

use ckd_apps::jacobi3d::{improvement_percent, run_jacobi_grid_on, serial_jacobi, JacobiCfg};
use ckd_apps::{Platform, Variant};

fn main() {
    let domain = [32, 32, 16];
    let iters = 25;
    let cfg = |variant| JacobiCfg {
        domain,
        chares: [4, 4, 2],
        iters,
        variant,
        real_compute: true,
    };
    let platform = Platform::IbAbe { cores_per_node: 8 };
    let pes = 8;

    println!(
        "Jacobi3D, {}x{}x{} domain, 32 chares on {pes} PEs ({}), {iters} iterations",
        domain[0],
        domain[1],
        domain[2],
        platform.label(),
    );

    let run = |variant| run_jacobi_grid_on(&mut platform.builder(pes).build(), cfg(variant));
    let (msg_result, msg_grid) = run(Variant::Msg);
    let (ckd_result, ckd_grid) = run(Variant::Ckd);
    let reference = serial_jacobi(domain, iters);

    assert_eq!(msg_grid, reference, "MSG grid differs from serial");
    assert_eq!(ckd_grid, reference, "CKD grid differs from serial");
    println!("verification: both variants match the serial reference bit for bit");
    println!("final residual: {:.6e}", msg_result.residual);
    println!();
    println!(
        "{:<22} {:>14} {:>14}",
        "", "MSG (messages)", "CKD (CkDirect)"
    );
    println!(
        "{:<22} {:>14.1} {:>14.1}",
        "us per iteration",
        msg_result.time_per_iter.as_us_f64(),
        ckd_result.time_per_iter.as_us_f64()
    );
    println!(
        "CkDirect improvement: {:.2}% (gains grow with processor count — see `cargo bench --bench fig2`)",
        improvement_percent(msg_result.time_per_iter, ckd_result.time_per_iter)
    );
}
