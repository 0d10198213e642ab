#!/usr/bin/env python3
"""Build the cloud on the thermally non-entanglable boundary (one
closed-form root per ray from a facet grid point to the Gibbs state),
export its convex hull as an OBJ mesh, and compare the hull volume with an
independent Monte Carlo estimate.
"""

import argparse

from thermalent import convex_hull_export, tne_boundary, two_qubit_context, volume_of


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.0)
    ap.add_argument("--gap", type=float, default=1.0)
    ap.add_argument("--grid", type=int, default=32)
    ap.add_argument("--iters", type=int, default=30)
    ap.add_argument("--samples", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--obj", default="tne_boundary.obj")
    args = ap.parse_args()

    ctx = two_qubit_context(args.beta, args.gap)
    cloud = tne_boundary(ctx, args.grid, args.iters)
    mesh = convex_hull_export(cloud)
    with open(args.obj, "w", encoding="utf-8") as fh:
        fh.write(mesh.to_obj())
    mc = volume_of("TNE", ctx, None, args.samples, args.seed)
    print(f"cloud points:   {cloud.points.shape[0]}")
    print(f"hull vertices:  {mesh.vertices.shape[0]}, faces: {mesh.faces.shape[0]}")
    print(f"hull fraction:  {mesh.volume_fraction:.5f}")
    print(f"MC fraction:    {mc.fraction:.5f} +- {mc.std_error:.5f}")
    print(f"OBJ written to: {args.obj}")


if __name__ == "__main__":
    main()
