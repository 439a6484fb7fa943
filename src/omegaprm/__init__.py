"""Automatic process supervision via divide-and-conquer Monte Carlo Tree
Search, plus PRM training objectives and weighted self-consistency."""
