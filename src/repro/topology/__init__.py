"""Network topology and routing.

The paper evaluates an 8x8 two-dimensional mesh with deterministic
dimension-ordered (XY) routing; this subpackage provides that topology in a
general ``width x height`` form plus the routing function and the capacity
model used to normalise offered load.
"""
