"""Layers of biexp as the benchmark sees them: the functions the traced run
wraps in each module, and the end-to-end metric each layer should move.

A method is named ``Class.method``.  Module functions are rebound in every
biexp module that holds them, since several modules import them by name.
"""

LAYERS = {
    "specfun": {
        "functions": ["bessel_j_ratio", "bessel_j", "dunkl_kernel", "dunkl_kernel_z",
                      "bessel_i_norm", "gamma", "bessel_zeros"],
        "moves": "pass_s on verify-real; call_us_p50 on eval-pointwise, and its "
                 "pass_s, calls_per_s and call_us_p99 through bessel_zeros (about "
                 "88% of stream time, 90% of the calls above p99); not pass_s on "
                 "verify-q",
    },
    "quad": {
        "functions": ["gauss_jacobi", "rule_for_measure", "integrate_interval",
                      "accelerate", "integrate_bessel_product"],
        "moves": "pass_s on verify-real",
    },
    "orthopoly": {
        "functions": ["jacobi_eval", "GenGegenbauerFamily.eval", "GenGegenbauerFamily.norm"],
        "moves": "pass_s on verify-real, call_us_p50 on eval-pointwise",
    },
    "biortho": {
        "functions": ["dunkl_kernel_grid", "PWFunction.eval", "BiorthSystem.gram",
                      "dunkl_sampling_sum", "fourier_neumann_coeffs", "neumann_fn",
                      "hankel_corollary_sum", "planewave_partial_sum"],
        "moves": "pass_s on verify-real",
    },
    "spectrum": {
        "functions": ["eigen_coeffs", "eigenfunction", "apply_T", "eigen_residual"],
        "moves": "pass_s on verify-real (about 1% of it)",
    },
    "qspec": {
        "functions": ["qbessel3_ratio", "qpochhammer", "phi21", "jackson_integral",
                      "q_transform", "q_hankel", "QJacobiFamily.little_p_raw",
                      "QJacobiFamily.gram_matrix_mp"],
        "moves": "pass_s on verify-q; call_us_p99 on eval-pointwise through the "
                 "off-grid qbessel3 calls (about a tenth of the calls above p99); "
                 "not pass_s on verify-real",
    },
    "suites": {
        "functions": [],
        "moves": "pass_s on the workload whose suites it runs",
    },
}

SUITES = ("planewave", "dunkl-sampling", "fourier-neumann", "hankel", "spectrum",
          "lemma71", "q-core", "q-planewave", "q-weber")

# extra work counts read at the wrapped boundaries: name -> (unit, better)
EXTRA = {
    "specfun.bessel_j_ratio.calls.x_le9": ("count", "lower"),
    "specfun.bessel_j_ratio.calls.x_9_50": ("count", "lower"),
    "specfun.bessel_j_ratio.calls.x_gt50": ("count", "lower"),
    "quad.integrate_bessel_product.cells": ("count", "lower"),
    "quad.integrate_bessel_product.converged_frac": ("ratio", "higher"),
    "biortho.dunkl_kernel_grid.nodes": ("count", "lower"),
    "qspec.qbessel3.repeat_frac": ("ratio", "higher"),
}


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    out = []
    for layer, spec in LAYERS.items():
        for fn in spec["functions"]:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
        out.append((f"layer.{layer}.self_s", "s", "lower"))
    out += [(name, unit, better) for name, (unit, better) in EXTRA.items()]
    out += [(f"suites.{s}.wall_s", "s", "lower") for s in SUITES]
    out.append(("trace.overhead_s", "s", "lower"))
    return out
