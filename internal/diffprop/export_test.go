package diffprop

// OrderTable exposes the committed variable-order table to the external
// tests, which score its entries with the analysis package.
var OrderTable = orderTable
