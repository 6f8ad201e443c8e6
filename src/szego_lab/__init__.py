"""Pseudospectral toolkit for the cubic Szego equation with a small
Toeplitz potential.

The package discretizes the Hardy space L^2_+ on a periodic box, evolves
the perturbed equation, and tracks how close the solution stays to the
four-parameter soliton family by reparametrizing each snapshot into a
group element plus a symplectically orthogonal remainder.
"""
