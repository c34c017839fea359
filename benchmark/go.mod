module bicriteria/benchmark

go 1.24

require bicriteria v0.0.0

replace bicriteria => ../
