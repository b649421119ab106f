"""Reference implementations the production paths are held to.

Oracles live on the test side: they trade speed for obviousness, and
``src/repro`` never imports them.
"""
